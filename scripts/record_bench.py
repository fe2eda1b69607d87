"""Record the perf-core trajectory into BENCH_core.json.

Runs the n = 96 / n = 192 quadratic-BA profiles (the paper's large-n
hot path), counting wall time, envelope throughput, and verification-call
counts, and writes the numbers to ``BENCH_core.json`` at the repo root so
the perf trajectory is tracked PR-over-PR.

Usage::

    PYTHONPATH=src python scripts/record_bench.py [--output BENCH_core.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

from repro.harness.profiling import profile_phase_budget
from repro.protocols.quadratic_ba import build_quadratic_ba
from repro.protocols.subquadratic_ba import build_subquadratic_ba

#: The published scaling grid (docs/PERFORMANCE.md "Scaling curve").
SCALING_GRID = (96, 192, 384, 768, 1536)

#: Seed-state reference numbers (pre-optimization, same machine class),
#: kept in the file so every snapshot carries its own baseline.
SEED_BASELINE = {
    "quadratic-ba-n192": {
        "authenticator_check_calls": 7224671,
        "wall_seconds_reference": 8.04,
    },
    "quadratic-ba-n96": {
        "authenticator_check_calls": 921263,
        "wall_seconds_reference": 1.09,
    },
}


def profile_quadratic(n: int, f: int, seed: int = 1) -> dict:
    instance = build_quadratic_ba(n, f, [i % 2 for i in range(n)], seed=seed)
    profile = profile_phase_budget(instance, f, seed=seed)
    result, wall = profile.result, profile.wall_seconds

    envelopes = len(result.transcript)
    return {
        "n": n,
        "f": f,
        "seed": seed,
        "wall_seconds": round(wall, 4),
        "rounds_executed": result.rounds_executed,
        "envelopes": envelopes,
        "envelopes_per_second": round(envelopes / wall, 1) if wall else None,
        "authenticator_check_calls": profile.check_calls,
        "multicast_complexity_messages":
            result.metrics.multicast_complexity_messages,
        "multicast_complexity_bits": result.metrics.multicast_complexity_bits,
        "consistent": result.consistent(),
        "all_decided": result.all_decided(),
    }


def scaling_point(family: str, n: int, seed: int = 1) -> dict:
    """One (protocol family, n) point of the scaling curve, with the
    phase-budget breakdown of where its wall clock went."""
    inputs = [i % 2 for i in range(n)]
    if family == "quadratic":
        f = n // 2 - 1
        instance = build_quadratic_ba(n, f, inputs, seed=seed)
    elif family == "subquadratic":
        # Same corruption ratio the subquadratic profiles have always
        # used (f = 100 at n = 256): ~0.39 n, within the < n/2 bound.
        f = 100 * n // 256
        instance = build_subquadratic_ba(n, f, inputs, seed=seed)
    else:
        raise ValueError(f"unknown protocol family {family!r}")
    budget = profile_phase_budget(instance, f, seed=seed)
    result = budget.result
    assert result.consistent() and result.all_decided(), \
        f"scaling point {family} n={n} produced an invalid execution"
    point = {
        "n": n,
        "f": f,
        "seed": seed,
        "rounds_executed": result.rounds_executed,
        "envelopes": len(result.transcript),
        "multicast_complexity_bits": result.metrics.multicast_complexity_bits,
        "budget": budget.budget_dict(),
    }
    return point


def profile_scaling_curve(grid=SCALING_GRID, seed: int = 1) -> dict:
    """The tentpole artifact: quadratic vs subquadratic BA across the
    published n grid, each point carrying its phase-time budget.

    The per-point ``budget`` attributes wall time to deliver / protocol /
    verify / sizing / other (see ``PhaseBudget``); the curve is what
    docs/PERFORMANCE.md renders and what makes the paper's asymptotic
    separation empirically visible — quadratic multicast bits grow ~n²
    while subquadratic bits stay flat in n.
    """
    return {
        "grid": list(grid),
        "quadratic": [scaling_point("quadratic", n, seed) for n in grid],
        "subquadratic": [scaling_point("subquadratic", n, seed)
                         for n in grid],
    }


def profile_network_fast_path(n: int = 96, f: int = 47, seed: int = 1) -> dict:
    """Prove the perfect-synchrony fast path did not regress.

    Runs the same quadratic-BA profile twice — once with ``conditions``
    unset and once with explicit ``NetworkConditions.perfect()`` — and
    asserts the executions are identical (same transcript, metrics, and
    outputs: the engine must normalize perfect conditions to the plain
    ``SynchronousNetwork`` loop).  A conditioned WAN run is recorded
    alongside for the cost of the partial-synchrony axis.
    """
    from repro.harness import run_instance
    from repro.sim.conditions import NETWORKS, NetworkConditions

    def timed_run(conditions):
        instance = build_quadratic_ba(
            n, f, [i % 2 for i in range(n)], seed=seed)
        start = time.perf_counter()
        result = run_instance(instance, f, seed=seed, conditions=conditions)
        return result, time.perf_counter() - start

    plain, plain_wall = timed_run(None)
    perfect, perfect_wall = timed_run(NetworkConditions.perfect())
    assert perfect.network_stats is None, \
        "perfect conditions must use the unconditioned fast path"
    assert plain.outputs == perfect.outputs \
        and plain.rounds_executed == perfect.rounds_executed \
        and plain.transcript == perfect.transcript \
        and plain.metrics == perfect.metrics, \
        "perfect-synchrony results diverged from the unconditioned run"
    wan, wan_wall = timed_run(NETWORKS["wan"])
    return {
        "n": n,
        "f": f,
        "seed": seed,
        "fast_path_identical": True,
        "wall_seconds_unconditioned": round(plain_wall, 4),
        "wall_seconds_perfect_conditions": round(perfect_wall, 4),
        "wall_seconds_wan_conditions": round(wan_wall, 4),
        "wan_mean_delivery_latency": round(
            wan.network_stats.mean_delivery_latency, 4),
        "wan_max_in_flight": wan.network_stats.max_in_flight,
    }


def profile_early_stop(n: int = 96, f: int = 31, seed: int = 1) -> dict:
    """Early stopping pays for itself: fixed-budget phase-king versus the
    GST-aware early-stop variant under the ``lan`` preset.

    Asserts the variant's wall clock *and* round count drop against the
    fixed-budget original (phase-king always runs its full epoch budget,
    so this is the cleanest before/after pair), that both runs agree and
    validate, and that the fixed run reports zero rounds saved.
    """
    from repro.harness import run_instance
    from repro.protocols.early_stopping import build_phase_king_early_stop
    from repro.protocols.phase_king import build_phase_king
    from repro.sim.conditions import NETWORKS

    conditions = NETWORKS["lan"]
    inputs = [i % 2 for i in range(n)]

    def timed_run(builder, **kwargs):
        instance = builder(n, f, inputs, seed=seed, **kwargs)
        start = time.perf_counter()
        result = run_instance(instance, f, seed=seed, conditions=conditions)
        return result, time.perf_counter() - start

    fixed, fixed_wall = timed_run(build_phase_king)
    early, early_wall = timed_run(build_phase_king_early_stop,
                                  conditions=conditions)
    for result in (fixed, early):
        assert result.consistent() and result.agreement_valid(), \
            "early-stop profile produced an invalid execution"
    assert fixed.rounds_saved == 0, \
        "fixed-budget phase-king must run out its budget"
    assert early.rounds_executed < fixed.rounds_executed, \
        "early stopping failed to cut rounds_executed"
    assert early.rounds_saved > 0, \
        "early stopping failed to report rounds_saved"
    assert early_wall < fixed_wall, \
        "early stopping failed to cut wall clock"
    return {
        "n": n,
        "f": f,
        "seed": seed,
        "network": "lan",
        "rounds_executed_fixed_budget": fixed.rounds_executed,
        "rounds_executed_early_stop": early.rounds_executed,
        "rounds_saved": early.rounds_saved,
        "multicasts_fixed_budget":
            fixed.metrics.multicast_complexity_messages,
        "multicasts_early_stop":
            early.metrics.multicast_complexity_messages,
        "wall_seconds_fixed_budget": round(fixed_wall, 4),
        "wall_seconds_early_stop": round(early_wall, 4),
    }


def profile_event_engine_wan(n: int = 8, f: int = 3,
                             deltas=(32, 128, 512), trials: int = 12) -> dict:
    """The event engine stays flat on sparse-latency topologies.

    The responsiveness scenario (Momose–Ren): a conservatively large Δ
    bound over links that actually deliver in 1–3 ticks (fixed latency 1
    plus a clustered cross-pod surcharge), so almost every network tick
    is idle.  A loop that ticks once per network round grows linearly
    with Δ; the event engine jumps between due timestamps.  Sweeps
    quadratic BA across a Δ grid, recording the wall clock and the skip
    density at every point, and the phase budget at the sparsest.
    (That the skipping loop is *right* — execution-identical to the
    Δ-lockstep reference — is tier-1's job:
    ``tests/test_event_engine_differential.py``.)
    """
    from repro.harness import run_instance
    from repro.sim.conditions import LinkTopology, NetworkConditions

    inputs = [i % 2 for i in range(n)]
    points = []
    for delta in deltas:
        conditions = NetworkConditions(
            delta=delta, latency=("fixed", 1),
            topology=LinkTopology.clustered(clusters=4, extra=2))
        start = time.perf_counter()
        results = [
            run_instance(build_quadratic_ba(n, f, inputs, seed=seed), f,
                         seed=seed, conditions=conditions)
            for seed in range(trials)]
        wall = time.perf_counter() - start
        assert all(result.consistent() and result.all_decided()
                   for result in results), f"violation at delta={delta}"
        stats = results[0].network_stats
        points.append({
            "delta": delta,
            "wall_seconds_event": round(wall, 4),
            "network_rounds": stats.network_rounds,
            "skipped_ticks": stats.skipped_ticks,
            "events_processed": stats.events_processed,
            "skip_density": round(
                stats.skipped_ticks / stats.network_rounds, 3),
        })

    # ``conditions`` is now the sparsest point's (the last, largest Δ).
    budget = profile_phase_budget(
        build_quadratic_ba(n, f, inputs, seed=1), f, seed=1,
        conditions=conditions)
    return {
        "n": n,
        "f": f,
        "trials": trials,
        "latency": "fixed-1 + clustered(4,+2) surcharge",
        "points": points,
        "budget_sparsest_event": budget.budget_dict(),
    }


def profile_adaptive_words(n: int = 25, f: int = 8,
                           actuals=(0, 4, 8), seed: int = 1) -> dict:
    """The adaptive family makes every word count: total words
    (``classical_message_count``) of ``adaptive-ba`` at actual fault
    counts f* ∈ {0, f/2, f} for a fixed system size, against the
    quadratic-BA baseline at the same points.

    Asserts the fault-free run costs at most ``FAST_PATH_WORD_FACTOR·n``
    words (the documented constant-factor-of-n fast path — exactly
    ``4(n-1)`` as implemented), that words are monotone in f*, and that
    every adaptive point stays strictly below the quadratic baseline.
    """
    from repro.adversaries import ActualFaultsAdversary
    from repro.harness import run_instance
    from repro.protocols.adaptive_ba import (
        FAST_PATH_WORD_FACTOR, build_adaptive_ba, escalations_of, words_of)

    inputs = [1] * n

    def timed_run(builder, actual):
        instance = builder(n, f, inputs, seed=seed)
        adversary = ActualFaultsAdversary(actual=actual)
        start = time.perf_counter()
        result = run_instance(instance, f, adversary, seed=seed)
        return result, time.perf_counter() - start

    points = []
    for actual in actuals:
        adaptive, adaptive_wall = timed_run(build_adaptive_ba, actual)
        quadratic, quadratic_wall = timed_run(build_quadratic_ba, actual)
        for result in (adaptive, quadratic):
            assert result.consistent() and result.all_decided(), \
                f"adaptive-words profile invalid at actual={actual}"
        adaptive_words = words_of(adaptive)
        quadratic_words = words_of(quadratic)
        assert adaptive_words < quadratic_words, \
            f"adaptive words {adaptive_words} not below quadratic " \
            f"{quadratic_words} at actual={actual}"
        points.append({
            "actual_faults": actual,
            "adaptive_words": adaptive_words,
            "adaptive_escalations": escalations_of(adaptive),
            "quadratic_words": quadratic_words,
            "wall_seconds_adaptive": round(adaptive_wall, 4),
            "wall_seconds_quadratic": round(quadratic_wall, 4),
        })
    fast_path = points[0]
    assert fast_path["actual_faults"] == 0
    assert fast_path["adaptive_words"] <= FAST_PATH_WORD_FACTOR * n, \
        f"fault-free words {fast_path['adaptive_words']} exceed " \
        f"{FAST_PATH_WORD_FACTOR}·n"
    words = [p["adaptive_words"] for p in points]
    assert words == sorted(words), \
        f"adaptive words not monotone in actual faults: {words}"
    return {
        "n": n,
        "f": f,
        "seed": seed,
        "fast_path_word_factor": FAST_PATH_WORD_FACTOR,
        "adaptive_points": points,
    }


def profile_sweep(name: str = "adversary-grid") -> dict:
    """One named sweep, with and without the shared lottery cache."""
    from repro.harness.scenarios import run_sweep
    from repro.harness.sweep_library import SWEEPS

    sweep = SWEEPS[name]
    start = time.perf_counter()
    unshared = run_sweep(sweep, share_lottery=False)
    unshared_wall = time.perf_counter() - start
    start = time.perf_counter()
    shared = run_sweep(sweep, share_lottery=True)
    shared_wall = time.perf_counter() - start
    assert shared.rows() == unshared.rows(), "lottery cache changed results"
    return {
        "sweep": name,
        "cells": len(shared.cells),
        "wall_seconds_unshared": round(unshared_wall, 4),
        "wall_seconds_shared": round(shared_wall, 4),
        "lottery_coins": shared.lottery["coins"],
        "lottery_hits": shared.lottery["hits"],
    }


def profile_store(name: str = "smoke") -> dict:
    """The experiment store pays for itself: one named sweep cold
    (computing and recording every cell) versus warm (replaying every
    cell), differentially asserting that cached replay is identical to
    fresh compute — rows, rendered table, and a storeless reference run.
    """
    import shutil
    import tempfile

    from repro.harness.scenarios import run_sweep
    from repro.harness.store import ExperimentStore
    from repro.harness.sweep_library import SWEEPS

    sweep = SWEEPS[name]
    tmp = tempfile.mkdtemp(prefix="repro-store-bench-")
    try:
        store = ExperimentStore(tmp)
        start = time.perf_counter()
        fresh = run_sweep(sweep)
        fresh_wall = time.perf_counter() - start
        start = time.perf_counter()
        cold = run_sweep(sweep, store=store)
        cold_wall = time.perf_counter() - start
        start = time.perf_counter()
        warm = run_sweep(sweep, store=store)
        warm_wall = time.perf_counter() - start
        cells = len(warm.cells)
        assert warm.store_stats["computed"] == 0, \
            "warm store run recomputed cells"
        assert warm.store_stats["replayed"] == cells, \
            "warm store run missed recorded cells"
        assert fresh.rows() == cold.rows() == warm.rows(), \
            "store replay diverged from fresh compute"
        assert (fresh.to_table().render() == cold.to_table().render()
                == warm.to_table().render()), \
            "store replay rendered a different table"
        return {
            "sweep": name,
            "cells": cells,
            "hit_rate_warm": 1.0,
            "wall_seconds_no_store": round(fresh_wall, 4),
            "wall_seconds_cold": round(cold_wall, 4),
            "wall_seconds_warm": round(warm_wall, 4),
            "replay_speedup": round(cold_wall / warm_wall, 1)
            if warm_wall else None,
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_core.json"))
    args = parser.parse_args()

    profiles = {
        "quadratic-ba-n96": profile_quadratic(96, 47),
        "quadratic-ba-n192": profile_quadratic(192, 95),
        "scaling-curve": profile_scaling_curve(),
        "sweep-adversary-grid": profile_sweep("adversary-grid"),
        "network-fast-path-n96": profile_network_fast_path(96, 47),
        "event-engine-wan": profile_event_engine_wan(),
        "early-stop-n96-lan": profile_early_stop(96, 31),
        "adaptive-words": profile_adaptive_words(25, 8),
        "store-replay-smoke": profile_store("smoke"),
    }
    for name, profile in profiles.items():
        baseline = SEED_BASELINE.get(name, {})
        seed_calls = baseline.get("authenticator_check_calls")
        if seed_calls:
            profile["check_call_reduction_vs_seed"] = round(
                seed_calls / max(profile["authenticator_check_calls"], 1), 1)

    snapshot = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed_baseline": SEED_BASELINE,
        "profiles": profiles,
    }
    output = Path(args.output)
    output.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {output}")
    for name, profile in profiles.items():
        if "grid" in profile:
            for family in ("quadratic", "subquadratic"):
                curve = " ".join(
                    f"n={p['n']}:{p['budget']['wall_seconds']}s"
                    for p in profile[family])
                print(f"  {name} [{family}]: {curve}")
        elif "hit_rate_warm" in profile:
            print(f"  {name}: warm replay {profile['wall_seconds_warm']}s "
                  f"vs cold {profile['wall_seconds_cold']}s over "
                  f"{profile['cells']} cells "
                  f"({profile['replay_speedup']}x, 100% hits)")
        elif "sweep" in profile:
            print(f"  {name}: {profile['wall_seconds_shared']}s wall "
                  f"(shared lottery; {profile['wall_seconds_unshared']}s "
                  f"unshared), {profile['lottery_hits']}/"
                  f"{profile['lottery_coins'] + profile['lottery_hits']} "
                  f"flips served from cache")
        elif "points" in profile:
            curve = " ".join(
                f"Δ={p['delta']}:{p['wall_seconds_event']}s"
                for p in profile["points"])
            densest = profile["points"][-1]
            print(f"  {name}: event engine {curve} "
                  f"(skip density {densest['skip_density']} at "
                  f"Δ={densest['delta']})")
        elif "adaptive_points" in profile:
            curve = " ".join(
                f"f*={p['actual_faults']}:{p['adaptive_words']}w"
                for p in profile["adaptive_points"])
            quad = profile["adaptive_points"][0]["quadratic_words"]
            print(f"  {name}: {curve} "
                  f"(quadratic baseline {quad}w at f*=0; fast path <= "
                  f"{profile['fast_path_word_factor']}n)")
        elif "rounds_saved" in profile:
            print(f"  {name}: {profile['rounds_executed_early_stop']} rounds "
                  f"({profile['wall_seconds_early_stop']}s) vs fixed budget "
                  f"{profile['rounds_executed_fixed_budget']} rounds "
                  f"({profile['wall_seconds_fixed_budget']}s); "
                  f"{profile['rounds_saved']} rounds saved")
        elif "fast_path_identical" in profile:
            print(f"  {name}: perfect-conditions run identical to "
                  f"unconditioned ({profile['wall_seconds_perfect_conditions']}s"
                  f" vs {profile['wall_seconds_unconditioned']}s); "
                  f"wan run {profile['wall_seconds_wan_conditions']}s at "
                  f"latency {profile['wan_mean_delivery_latency']}")
        else:
            print(f"  {name}: {profile['wall_seconds']}s wall, "
                  f"{profile['authenticator_check_calls']} check calls, "
                  f"{profile['envelopes_per_second']} envelopes/s")


if __name__ == "__main__":
    main()
