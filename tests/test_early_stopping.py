"""GST-aware early-stopping variants (docs/PROTOCOLS.md).

The safety-critical property: agreement and validity must hold when
*some* nodes stop early and others run the full budget — mixed halting
is the normal operating mode under Byzantine equivocation (an adversary
can always keep one honest node's view just short of unanimity).  The
suite drives that mix three ways: a rushing equivocator that completes
unanimity for only half the network, a literally mixed instance (half
the nodes run the fixed-budget original), and randomized Δ-bounded
conditions where the GST gate staggers detection.
"""

import random

import pytest

from repro.adversaries import CrashAdversary, DelayAdversary
from repro.harness.runner import run_instance, run_trials
from repro.harness.scenarios import (
    ScenarioSpec, SweepSpec, rounds_saved_columns, run_sweep)
from repro.harness.sweep_library import SWEEPS
from repro.protocols import (
    build_phase_king,
    build_phase_king_early_stop,
    build_quadratic_ba,
    build_quadratic_ba_early_stop,
)
from repro.protocols.messages import AckMsg
from repro.protocols.phase_king import phase_king_rounds
from repro.sim.adversary import Adversary
from repro.sim.conditions import NETWORKS, NetworkConditions
from tests import reference
from tests.reference import both_engines


# ---------------------------------------------------------------------------
# Helper adversary: complete unanimity for only half of the network.
# ---------------------------------------------------------------------------


class HalfUnanimityAdversary(Adversary):
    """Corrupts one node and ACKs each epoch's unanimous bit to only the
    first half of the network — those nodes observe all ``n`` ACKers and
    stop early, while the other half's view stays one short."""

    name = "half-unanimity"

    def __init__(self, instance, bit=1):
        super().__init__()
        self.authenticator = instance.authenticator
        self.bit = bit
        self.victim = None

    def on_setup(self):
        self.victim = self.api.n - 1
        self.api.corrupt(self.victim)

    def react(self, round_index, staged):
        epoch, is_ack_round = divmod(round_index, 2)
        if not is_ack_round:
            return
        auth = self.authenticator.attempt(
            self.victim, ("ACK", epoch, self.bit))
        message = AckMsg(epoch=epoch, bit=self.bit,
                         sender=self.victim, auth=auth)
        for target in range(self.api.n // 2):
            self.api.inject(self.victim, target, message)


# ---------------------------------------------------------------------------
# Phase-king early stopping.
# ---------------------------------------------------------------------------


class TestPhaseKingEarlyStop:
    def test_unanimous_inputs_stop_immediately(self):
        n, f = 13, 4
        result = run_instance(
            build_phase_king_early_stop(n, f, [1] * n, seed=3), f, seed=3)
        assert result.consistent() and result.agreement_valid()
        assert result.all_decided()
        assert set(result.honest_outputs) == {1}
        # Epoch 0 is unanimous; everyone detects at the epoch-1 propose
        # round and halts — 3 rounds against a 41-round budget.
        assert result.rounds_executed == 3
        assert result.rounds_saved == phase_king_rounds(20) - 3

    def test_mixed_inputs_converge_then_stop(self):
        n, f = 13, 4
        result = run_instance(
            build_phase_king_early_stop(
                n, f, [i % 2 for i in range(n)], seed=5), f, seed=5)
        assert result.consistent() and result.agreement_valid()
        assert result.all_decided()
        assert result.rounds_saved > 30

    def test_plain_phase_king_saves_nothing(self):
        n, f = 13, 4
        result = run_instance(
            build_phase_king(n, f, [1] * n, seed=3), f, seed=3)
        assert result.rounds_executed == phase_king_rounds(20)
        assert result.rounds_saved == 0

    def test_rounds_saved_zero_under_perfect_with_adversary(self):
        """The ISSUE's pinned regression: a crash adversary removes its
        victims' ACKs, unanimity is unobservable, and the early-stop
        variant degrades to the fixed budget — rounds_saved == 0."""
        n, f = 13, 4
        stats = run_trials(
            build_phase_king_early_stop, f=f, seeds=range(3),
            adversary_factory=lambda instance: CrashAdversary(),
            conditions=NETWORKS["perfect"], n=n, inputs=[1] * n)
        assert stats.consistency_rate == 1.0
        assert stats.validity_rate == 1.0
        assert rounds_saved_columns(stats.results) == {
            "mean_rounds_saved": 0.0}
        assert stats.mean_rounds == phase_king_rounds(20)

    def test_half_unanimity_staggers_stops_but_agreement_holds(self):
        """The rushing equivocator completes unanimity for half the
        network; detectors publish the certificate, so the other half
        adopts one round later — decisions land at different rounds but
        on the same bit."""
        n, f = 9, 2
        instance = build_phase_king_early_stop(n, f, [1] * n, seed=7)
        adversary = HalfUnanimityAdversary(instance)
        result = run_instance(instance, f, adversary, seed=7)
        assert result.consistent() and result.agreement_valid()
        assert result.all_decided()
        assert set(result.honest_outputs) == {1}
        rounds = set(result.decision_rounds())
        assert len(rounds) == 2, "expected staggered decision rounds"
        assert max(rounds) == min(rounds) + 1

    def test_mixed_instance_early_and_full_budget_nodes_agree(self):
        """Half the nodes run the fixed-budget original (they ignore
        decide certificates entirely): early stoppers halt in epochs,
        the rest run out the whole budget, and outputs still agree."""
        import dataclasses

        n, f = 12, 3
        instance = build_phase_king_early_stop(n, f, [1] * n, seed=11)
        config = instance.config
        plain_config = dataclasses.replace(
            config, early_stop_unanimity=False)
        for node in instance.nodes:
            if node.node_id % 2:
                node.config = plain_config
        result = run_instance(instance, f, seed=11)
        assert result.consistent() and result.agreement_valid()
        assert result.all_decided()
        budget = phase_king_rounds(20)
        decision_rounds = [result.decided_rounds[node.node_id]
                           for node in instance.nodes]
        early = [r for r in decision_rounds if r < budget - 1]
        full = [r for r in decision_rounds if r == budget - 1]
        assert early and full, (
            f"expected a mix of early and full-budget halts, "
            f"got {sorted(decision_rounds)}")
        # The execution itself still runs the whole budget (the plain
        # half keeps going), so rounds_saved is honest about that.
        assert result.rounds_executed == budget
        assert result.rounds_saved == 0

    @both_engines
    def test_gst_gate_defers_detection(self, engine):
        """Under gst > 0 the detector must ignore pre-GST epochs even if
        a view looks unanimous: no decision lands before the first
        trusted tally round."""
        conditions = NetworkConditions(
            delta=2, gst=8, latency=("uniform", 1, 2), drop_rate=0.2)
        trusted = conditions.trusted_send_round
        assert trusted == 4
        n, f = 13, 4
        for seed in range(5):
            instance = build_phase_king_early_stop(
                n, f, [1] * n, seed=seed, conditions=conditions)
            result = reference.run(instance, f, seed=seed,
                                   conditions=conditions, engine=engine)
            assert result.consistent() and result.agreement_valid()
            assert min(result.decision_rounds()) > trusted

    @both_engines
    def test_randomized_conditions_property(self, engine):
        """Seeded sweep over random Δ-bounded conditions: agreement,
        validity, and termination hold while detection staggers."""
        rng = random.Random(20260728)
        n, f = 13, 4
        for trial in range(8):
            delta = rng.randint(2, 4)
            gst = rng.choice((0, 4, 8, 12))
            drop = rng.uniform(0.0, 0.25) if gst else 0.0
            conditions = NetworkConditions(
                delta=delta, gst=gst, latency=("uniform", 1, delta),
                drop_rate=drop)
            seed = rng.randint(0, 10_000)
            instance = build_phase_king_early_stop(
                n, f, [i % 2 for i in range(n)], seed=seed,
                conditions=conditions)
            result = reference.run(instance, f, seed=seed,
                                   conditions=conditions, engine=engine)
            assert result.consistent(), (trial, delta, gst, drop, seed)
            assert result.agreement_valid(), (trial, delta, gst, drop, seed)
            assert result.all_decided(), (trial, delta, gst, drop, seed)


# ---------------------------------------------------------------------------
# Quadratic-BA early stopping.
# ---------------------------------------------------------------------------


class TestQuadraticEarlyStop:
    def test_fast_decide_beats_plain_without_faults(self):
        n, f = 9, 4
        plain = run_instance(
            build_quadratic_ba(n, f, [1] * n, seed=2), f, seed=2)
        early = run_instance(
            build_quadratic_ba_early_stop(n, f, [1] * n, seed=2), f, seed=2)
        assert early.consistent() and early.agreement_valid()
        assert early.all_decided()
        assert early.honest_outputs == plain.honest_outputs
        assert early.rounds_executed < plain.rounds_executed

    def test_crash_adversary_makes_variant_identical_to_plain(self):
        """Crashed nodes never vote, unanimity is unobservable, and the
        fast path must be completely inert: same outputs, same rounds,
        same transcript as the fixed protocol."""
        n, f = 9, 4
        for seed in range(3):
            plain_instance = build_quadratic_ba(n, f, [1] * n, seed=seed)
            plain = run_instance(plain_instance, f, CrashAdversary(),
                                 seed=seed)
            early_instance = build_quadratic_ba_early_stop(
                n, f, [1] * n, seed=seed)
            early = run_instance(early_instance, f, CrashAdversary(),
                                 seed=seed)
            assert early.outputs == plain.outputs
            assert early.rounds_executed == plain.rounds_executed
            assert early.rounds_saved == plain.rounds_saved
            assert len(early.transcript) == len(plain.transcript)

    @both_engines
    def test_randomized_conditions_property(self, engine):
        """Random Δ-bounded conditions with the Δ-deadline scheduler and
        crashes: the variant keeps the invariants of the original."""
        rng = random.Random(42)
        n, f = 9, 4
        for trial in range(8):
            delta = rng.randint(2, 4)
            gst = rng.choice((0, 6, 12))
            conditions = NetworkConditions(
                delta=delta, gst=gst, latency=("uniform", 1, delta),
                drop_rate=rng.uniform(0.0, 0.2) if gst else 0.0)
            seed = rng.randint(0, 10_000)
            adversary = rng.choice(
                (None, CrashAdversary(), DelayAdversary()))
            instance = build_quadratic_ba_early_stop(
                n, f, [i % 2 for i in range(n)], seed=seed,
                conditions=conditions)
            result = reference.run(instance, f, adversary, seed=seed,
                                   conditions=conditions, engine=engine)
            assert result.consistent(), (trial, delta, gst, seed)
            assert result.agreement_valid(), (trial, delta, gst, seed)


# ---------------------------------------------------------------------------
# Scenario layer, sweep library, artifacts.
# ---------------------------------------------------------------------------


class TestEarlyStopSweeps:
    def test_early_stop_vs_delta_monotone(self):
        """The acceptance criterion: rounds_saved grows monotonically
        with the Δ-headroom, for both early-stop scenarios."""
        result = run_sweep(SWEEPS["early-stop-vs-delta"])
        for scenario in ("phase-king-early-stop", "quadratic-early-stop"):
            cells = result.scenario(scenario)
            saved = [cell.metrics["mean_rounds_saved"] for cell in cells]
            assert all(a <= b for a, b in zip(saved, saved[1:])), (
                scenario, saved)
            assert saved[0] < saved[-1], (scenario, saved)
            assert all(cell.metrics["violation_rate"] == 0.0
                       for cell in cells)

    def test_rounds_saved_column_only_for_early_stop_protocols(self):
        sweep = SweepSpec(
            name="column-scope",
            scenarios=(
                ScenarioSpec(
                    name="plain", protocol="phase-king",
                    fixed={"n": 9, "f": 2}, inputs="ones", seeds=(0,)),
                ScenarioSpec(
                    name="early", protocol="phase-king-early-stop",
                    fixed={"n": 9, "f": 2}, inputs="ones", seeds=(0,)),
            ),
        )
        result = run_sweep(sweep)
        plain_row, early_row = [cell.row() for cell in result.cells]
        assert "mean_rounds_saved" not in plain_row
        assert early_row["mean_rounds_saved"] > 0

    def test_worker_pool_determinism(self):
        """Early-stop builders receive conditions through the pickled
        worker path; rows must match the sequential run exactly."""
        spec = SweepSpec(
            name="early-stop-workers",
            scenarios=(
                ScenarioSpec(
                    name="phase-king-early-stop",
                    protocol="phase-king-early-stop",
                    grid={"network": ("perfect", "lan")},
                    fixed={"n": 9, "f": 2}, inputs="ones",
                    seeds=range(2)),
            ),
        )
        sequential = run_sweep(spec, workers=1)
        fanned = run_sweep(spec, workers=2)
        assert sequential.rows() == fanned.rows()

    def test_attack_partition_studies_execute(self):
        """theorem4 / dolev-reischuk executors now accept a network
        binding and still find their starved victim under a healed
        split."""
        result = run_sweep(SWEEPS["partition-heal"])
        t4 = result.scenario("theorem4-under-partition")
        assert [cell.metrics["violation_rate"] for cell in t4] == [1.0, 1.0]
        dr = result.scenario("dolev-reischuk-under-partition")
        assert all(cell.metrics["consistency_violated"] for cell in dr)

    def test_attack_executors_still_reject_network_for_pure_analysis(self):
        from repro.errors import ConfigurationError

        spec = ScenarioSpec(
            name="census", executor="committee-census",
            fixed={"n": 32, "f": 8, "lam": 12, "network": "lan"},
            seeds=(0,))
        with pytest.raises(ConfigurationError):
            spec.cells()
