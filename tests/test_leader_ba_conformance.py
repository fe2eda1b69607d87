"""Leader-family conformance and leader-killer regressions.

Two pinned claims for ``protocols/leader_ba.py``:

- **Both engines decide**: a leader-family execution decides on the
  event engine and on the reference executor alike
  (``tests/test_reference_battery.py`` holds the two byte-identical for
  every network preset and admitted adversary).
- **Leader-killer regressions**: assassinating every announced leader
  costs exactly the rotation views the budget predicts, but an honest
  view after GST (budget exhausted, round-robin rotation past the
  killed set) still decides; unsupported targets are rejected with a
  clear :class:`~repro.errors.ConfigurationError` instead of silently
  attacking the wrong schedule.
"""

import pytest

from repro.adversaries import LeaderKillerAdversary, ViewSplitAdversary
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
from tests import reference
from tests.reference import both_engines


def _inputs(n):
    return [i % 2 for i in range(n)]


@both_engines
def test_decides_on_either_engine(engine):
    conditions = NETWORKS["wan"]
    instance = build_leader_ba(10, 3, _inputs(10), seed=7,
                               conditions=conditions)
    result = reference.run(instance, 3, seed=7, conditions=conditions,
                           engine=engine)
    assert result.all_decided() and result.consistent()


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
        threshold = instance.config.threshold
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
