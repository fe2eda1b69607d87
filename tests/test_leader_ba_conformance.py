"""Leader-family conformance and leader-killer regressions.

Two pinned claims for ``protocols/leader_ba.py``:

- **Both-engines identity** (the bar of
  ``test_event_engine_differential.py``): event-scheduler and lock-step
  executions of the leader family are byte-identical — outputs, decided
  rounds, transcripts, metrics, every ``NetworkStats`` counter, and the
  conditioned network's RNG end state — across the named presets, both
  adversaries, and the chained workload.
- **Leader-killer regressions**: assassinating every announced leader
  costs exactly the rotation views the budget predicts, but an honest
  view after GST (budget exhausted, round-robin rotation past the
  killed set) still decides; unsupported targets are rejected with a
  clear :class:`~repro.errors.ConfigurationError` instead of silently
  attacking the wrong schedule.
"""

import dataclasses

import pytest

from repro.adversaries import (
    CrashAdversary,
    LeaderKillerAdversary,
    ViewSplitAdversary,
)
from repro.errors import ConfigurationError
from repro.harness.runner import run_instance
from repro.protocols import (
    build_dolev_strong,
    build_leader_ba,
    build_leader_chain,
    build_phase_king,
    build_quadratic_ba,
)
from repro.protocols.leader_ba import decision_view_of
from repro.sim.conditions import NETWORKS, NetworkConditions
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
    "none": lambda instance: None,
    "crash": lambda instance: CrashAdversary(),
    "leader-killer": LeaderKillerAdversary,
    "view-split": ViewSplitAdversary,
}

CONDITIONS = ("lan", "wan", "lossy", "split-heal")

GRID = [(builder, network, adversary)
        for builder in ("leader-ba", "leader-chain")
        for network in CONDITIONS
        for adversary in ("none", "leader-killer")] + [
    ("leader-ba", "wan", "crash"),
    ("leader-ba", "lossy", "view-split"),
    ("leader-chain", "wan", "view-split"),
]


def _build(builder, conditions):
    if builder == "leader-chain":
        return build_leader_chain(10, 3, _inputs(10), seed=7, heights=2,
                                  conditions=conditions)
    return build_leader_ba(10, 3, _inputs(10), seed=7,
                           conditions=conditions)


def _execute(builder, network, adversary, engine, **kwargs):
    conditions = NETWORKS[network]
    instance = _build(builder, conditions)
    return engines.run(instance, 3, ADVERSARIES[adversary](instance),
                       seed=7, conditions=conditions, engine=engine,
                       **kwargs)


class TestBothEnginesIdentity:
    @pytest.mark.parametrize("builder,network,adversary", GRID,
                             ids=[f"{b}-{n}-{a}" for b, n, a in GRID])
    def test_event_engine_matches_lockstep(self, builder, network,
                                           adversary):
        event = _execute(builder, network, adversary, EVENT)
        lockstep = _execute(builder, network, adversary, LOCKSTEP)
        assert _snapshot(event) == _snapshot(lockstep)
        # Real conditioned executions, not fast-path ones — and the
        # guarantees hold while the engines agree.
        assert event.network_stats is not None
        assert event.consistent() and event.agreement_valid()

    @both_engines
    def test_decides_on_either_engine(self, engine):
        result = _execute("leader-ba", "wan", "none", engine)
        assert result.all_decided() and result.consistent()

    def test_rng_streams_end_in_the_same_state(self):
        """Draw-order identity, not just draw-outcome identity: the
        conditioned network's RNG ends a leader-family execution in the
        same state under both loops."""
        conditions = NETWORKS["lossy"]

        def final_rng_state(engine):
            instance = build_leader_ba(10, 3, _inputs(10), seed=13,
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


class TestQuorumThreshold:
    """Regressions for the quorum-intersection fix: the threshold is
    ``n - f`` (not a fixed ``2f + 1``), so two quorums intersect in more
    than ``f`` nodes for *every* admitted ``n > 3f`` — including the
    ``n = 3f + 2`` / ``3f + 3`` configurations where ``2f + 1`` quorums
    would admit equal-rank prevote-QCs for opposite bits."""

    @pytest.mark.parametrize("n,f", [(4, 1), (5, 1), (6, 1),
                                     (7, 2), (8, 2), (9, 2), (10, 3)])
    def test_threshold_is_n_minus_f(self, n, f):
        instance = build_leader_ba(n, f, _inputs(n))
        threshold = instance.services["threshold"]
        assert threshold == n - f
        # The safety bound itself: two quorums overlap in more nodes
        # than the adversary can double-vote.
        assert 2 * threshold - n > f

    @pytest.mark.parametrize("n,f", [(8, 2), (9, 2)])
    def test_view_split_cannot_break_agreement_beyond_3f_plus_1(
            self, n, f):
        """The review's concrete failure shape: n > 3f + 1 with an
        equivocating corrupt leader unicasting per-half conflicting
        proposals and prevotes under pre-GST drops."""
        conditions = NetworkConditions(delta=2, gst=6,
                                       latency=("uniform", 1, 2),
                                       drop_rate=0.25)
        for seed in range(5):
            instance = build_leader_ba(n, f, _inputs(n), seed=seed,
                                       conditions=conditions)
            adversary = ViewSplitAdversary(instance)
            result = run_instance(instance, f, adversary, seed=seed,
                                  conditions=conditions)
            assert result.consistent(), f"n={n} f={f} seed {seed}"
            assert result.agreement_valid(), f"n={n} f={f} seed {seed}"


class TestLeaderKillerRegressions:
    def test_honest_view_after_gst_still_decides(self):
        """The pinned liveness claim: the killer burns its whole budget
        on the first f leaders, and the first surviving honest leader's
        view after GST decides — within the Δ-derived budget."""
        conditions = NetworkConditions(delta=2, gst=8,
                                       latency=("uniform", 1, 2),
                                       drop_rate=0.2)
        for seed in range(5):
            instance = build_leader_ba(10, 3, _inputs(10), seed=seed,
                                       conditions=conditions)
            adversary = LeaderKillerAdversary(instance)
            result = run_instance(instance, 3, adversary, seed=seed,
                                  conditions=conditions)
            assert result.all_decided(), f"seed {seed}"
            assert result.consistent() and result.agreement_valid()
            # The budget is spent on announced leaders, nobody else.
            assert len(adversary.killed) <= 3
            assert set(adversary.killed) == set(result.corrupt_set)

    def test_kills_track_the_view_schedule(self):
        """Under lock-step the round-robin leaders of views 1, 2, ...
        are assassinated in order until the budget runs dry, and the
        settled view lands right behind the killed prefix."""
        instance = build_leader_ba(10, 3, _inputs(10), seed=1)
        adversary = LeaderKillerAdversary(instance)
        result = run_instance(instance, 3, adversary, seed=1)
        assert adversary.killed == [1, 2, 3]  # leader(view) = view % n
        assert result.all_decided()
        assert decision_view_of(result) == 4  # first un-killed leader

    def test_family_is_sniffed_from_the_instance(self):
        leader = LeaderKillerAdversary(
            build_leader_ba(7, 2, _inputs(7)))
        assert leader.family == "leader-ba"
        chain = LeaderKillerAdversary(
            build_leader_chain(7, 2, _inputs(7), heights=2))
        assert chain.family == "leader-ba"
        aba = LeaderKillerAdversary(
            build_quadratic_ba(8, 3, _inputs(8)))
        assert aba.family == "aba"
        king = LeaderKillerAdversary(
            build_phase_king(7, 2, _inputs(7)))
        assert king.family == "phase-king"

    def test_rejects_unsupported_targets(self):
        with pytest.raises(ConfigurationError,
                           match="needs an announced leader oracle"):
            LeaderKillerAdversary(build_dolev_strong(5, 1, sender_input=1))
