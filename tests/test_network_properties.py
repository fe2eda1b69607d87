"""Property-based partial-synchrony suite (seeded generators, no new deps).

The synchronizer claim behind ``docs/NETWORK.md``, checked end-to-end:
under *any* Δ-bounded network conditions (random per-copy latencies, any
Δ, worst-case adversarial delaying to the Δ deadline) the lock-step
protocols keep their agreement/validity/termination guarantees, because
the engine dilates protocol rounds by Δ.  Conditions are drawn from
seeded ``random.Random`` generators so every failure reproduces from its
case number alone.

Also pinned here:

- determinism — same seed + same conditions ⇒ byte-identical
  ``SweepResult`` artifacts, for any worker count;
- the ``metrics-only`` retention refusal (transcript analyses must not
  vacuously pass) still triggers when network conditions are active.
"""

import math
import random

import pytest

from repro.adversaries import DelayAdversary
from repro.harness import run_instance
from repro.harness.invariants import (
    commits_carry_valid_certificates,
    honest_votes_unique_per_iteration,
    quorum_intersection_on_acks,
)
from repro.harness.replay import narrate
from repro.harness.scenarios import ScenarioSpec, SweepSpec, run_sweep
from repro.protocols import (
    build_phase_king,
    build_quadratic_ba,
    build_subquadratic_ba,
)
from repro.sim.conditions import NETWORKS, NetworkConditions
from repro.types import SecurityParameters

CASES = range(6)


def delta_bounded_conditions(rng: random.Random) -> NetworkConditions:
    """A random Δ-bounded, lossless environment (the regime in which the
    synchronizer argument guarantees correctness: gst=0, no drops, no
    partitions — delays and reordering only)."""
    delta = rng.randint(1, 4)
    kind = rng.choice(("fixed", "uniform", "geometric"))
    if kind == "fixed":
        latency = ("fixed", rng.randint(1, delta))
    elif kind == "uniform":
        lo = rng.randint(1, delta)
        latency = ("uniform", lo, rng.randint(lo, delta))
    else:
        # Geometric draws above Δ exist but the post-GST clamp caps them.
        latency = ("geometric", rng.choice((0.3, 0.5, 0.8)))
    return NetworkConditions(delta=delta, latency=latency)


def random_inputs(rng: random.Random, n: int):
    """Either unanimous (validity must bind) or per-node random bits."""
    if rng.random() < 0.5:
        bit = rng.randint(0, 1)
        return [bit] * n, bit
    return [rng.randint(0, 1) for _ in range(n)], None


def assert_secure(result, expected_bit) -> None:
    assert result.consistent(), "agreement broken under Δ-bounded delays"
    assert result.agreement_valid(), "validity broken under Δ-bounded delays"
    assert result.all_decided(), "termination broken under Δ-bounded delays"
    if expected_bit is not None:
        assert set(result.honest_outputs) == {expected_bit}


class TestQuadraticBaUnderRandomConditions:
    @pytest.mark.parametrize("case", CASES)
    def test_invariants_hold(self, case):
        rng = random.Random(f"quadratic-{case}")
        n = rng.randint(8, 16)
        f = rng.randint(0, (n - 1) // 2)
        inputs, expected = random_inputs(rng, n)
        conditions = delta_bounded_conditions(rng)
        seed = rng.randint(0, 2**16)
        instance = build_quadratic_ba(n, f, inputs, seed=seed)
        result = run_instance(instance, f, seed=seed, conditions=conditions)
        assert_secure(result, expected)
        # Transcript-level invariants, not just end-state predicates.
        assert honest_votes_unique_per_iteration(result) is None
        threshold = instance.config.threshold
        assert commits_carry_valid_certificates(result, threshold) is None


class TestPhaseKingUnderRandomConditions:
    @pytest.mark.parametrize("case", CASES)
    def test_invariants_hold(self, case):
        rng = random.Random(f"phase-king-{case}")
        f = rng.randint(0, 3)
        n = rng.randint(3 * f + 1, 3 * f + 6)
        inputs, expected = random_inputs(rng, n)
        conditions = delta_bounded_conditions(rng)
        seed = rng.randint(0, 2**16)
        instance = build_phase_king(n, f, inputs, seed=seed)
        result = run_instance(instance, f, seed=seed, conditions=conditions)
        assert_secure(result, expected)
        assert quorum_intersection_on_acks(
            result, math.ceil(2 * n / 3)) is None


class TestSubquadraticBaUnderRandomConditions:
    @pytest.mark.parametrize("case", CASES)
    def test_invariants_hold(self, case):
        rng = random.Random(f"subquadratic-{case}")
        n = rng.randint(24, 40)
        f = rng.randint(0, int(0.3 * n))
        inputs, expected = random_inputs(rng, n)
        conditions = delta_bounded_conditions(rng)
        seed = rng.randint(0, 2**16)
        params = SecurityParameters(lam=12, epsilon=0.1)
        instance = build_subquadratic_ba(n, f, inputs, seed=seed,
                                         params=params)
        result = run_instance(instance, f, seed=seed, conditions=conditions)
        assert_secure(result, expected)


class TestAdversarialDelayWithinDelta:
    @pytest.mark.parametrize("case", CASES)
    def test_delay_scheduler_cannot_break_safety(self, case):
        """Worst-case Δ-bounded scheduling: every (or a random fraction
        of) honest copies shoved to the Δ deadline."""
        rng = random.Random(f"delay-{case}")
        n = rng.randint(8, 14)
        f = rng.randint(0, (n - 1) // 2)
        inputs, expected = random_inputs(rng, n)
        conditions = delta_bounded_conditions(rng)
        seed = rng.randint(0, 2**16)
        adversary = DelayAdversary(
            fraction=rng.choice((0.5, 1.0)), seed=seed)
        instance = build_quadratic_ba(n, f, inputs, seed=seed)
        result = run_instance(instance, f, adversary, seed=seed,
                              conditions=conditions)
        assert_secure(result, expected)
        if conditions.delta > 1:
            assert adversary.delayed_envelopes > 0


def _network_sweep() -> SweepSpec:
    return SweepSpec(
        name="net-determinism",
        scenarios=(
            ScenarioSpec(
                name="quadratic",
                protocol="quadratic",
                grid={"network": ("lan", "lossy", "split-heal")},
                fixed={"n": 10, "f": 2},
                inputs="mixed",
                seeds=range(2),
            ),
        ),
    )


class TestDeterministicArtifacts:
    def test_same_seed_same_conditions_byte_identical_artifacts(self, tmp_path):
        # share_lottery=False: the lottery section carries a process-local
        # cache token (not a result); the rows are compared with the cache
        # on in test_worker_count_does_not_change_artifacts.
        first = run_sweep(_network_sweep(), share_lottery=False)
        second = run_sweep(_network_sweep(), share_lottery=False)
        a = first.to_json(tmp_path / "a.json")
        b = second.to_json(tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()
        assert first.to_csv(tmp_path / "a.csv").read_bytes() == \
            second.to_csv(tmp_path / "b.csv").read_bytes()

    def test_worker_count_does_not_change_artifacts(self, tmp_path):
        sequential = run_sweep(_network_sweep(), workers=1)
        fanned = run_sweep(_network_sweep(), workers=2)
        assert sequential.rows() == fanned.rows()

    def test_rows_carry_network_metrics(self):
        rows = run_sweep(_network_sweep()).rows()
        assert all(row["network"] in ("lan", "lossy", "split-heal")
                   for row in rows)
        assert all("mean_delivery_latency" in row for row in rows)
        lossy = [row for row in rows if row["network"] == "lossy"]
        assert all(row["dropped_copies"] > 0 for row in lossy)

    def test_conditioned_executions_reproduce_exactly(self):
        conditions = NETWORKS["lossy"]
        n, f = 12, 3

        def execute():
            instance = build_quadratic_ba(n, f, [i % 2 for i in range(n)],
                                          seed=21)
            return run_instance(instance, f, seed=21, conditions=conditions)

        first, second = execute(), execute()
        assert first.outputs == second.outputs
        assert first.network_stats == second.network_stats
        assert [e.payload for e in first.transcript] == \
            [e.payload for e in second.transcript]


class TestMetricsOnlyRefusalUnderConditions:
    """Regression: ``metrics-only`` results must still be refused by the
    transcript analyses when network conditions are active — a discarded
    transcript must never vacuously pass an invariant scan."""

    def _metrics_only_result(self):
        n, f = 10, 2
        instance = build_quadratic_ba(n, f, [1] * n, seed=5)
        return run_instance(instance, f, seed=5,
                            transcript_retention="metrics-only",
                            conditions=NETWORKS["wan"])

    def test_retention_flag_survives_conditioned_network(self):
        result = self._metrics_only_result()
        assert result.transcript_retained is False
        assert result.transcript == []
        assert result.network_stats is not None  # metrics still recorded

    def test_invariants_refuse(self):
        result = self._metrics_only_result()
        with pytest.raises(ValueError, match="metrics-only"):
            honest_votes_unique_per_iteration(result)
        with pytest.raises(ValueError, match="metrics-only"):
            commits_carry_valid_certificates(result, threshold=8)

    def test_replay_refuses(self):
        result = self._metrics_only_result()
        with pytest.raises(ValueError, match="metrics-only"):
            narrate(result)
