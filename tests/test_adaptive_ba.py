"""Adaptive-BA unit and property tests (``protocols/adaptive_ba.py``).

The pinned claims:

- **Fast path**: a fault-free unanimous execution decides in epoch 1
  with zero escalations and at most ``FAST_PATH_WORD_FACTOR * n`` = 4n
  classical words — linear, not quadratic.
- **Adaptivity**: corrupting exactly k of the budgeted f nodes (the
  upcoming collectors — worst-case placement) costs exactly k
  escalation epochs, words grow monotonically in k, and even the
  k = f worst case stays below quadratic BA's word count at the same
  ``(n, f)``.
- **Safety**: agreement and validity hold across seeds, inputs, and the
  supported adversaries; split inputs unify through the king path in
  one escalation.
"""

import pytest

from repro.adversaries import ActualFaultsAdversary, CrashAdversary
from repro.errors import ConfigurationError
from repro.harness.runner import run_instance
from repro.protocols import build_adaptive_ba, build_quadratic_ba
from repro.protocols.adaptive_ba import (
    EPOCH_ROUNDS,
    FAST_PATH_WORD_FACTOR,
    AdaptiveAckMsg,
    AdaptiveDecideMsg,
    AdaptiveProposeMsg,
    actual_faults_of,
    collector_of,
    default_epochs,
    epoch_of_round,
    epoch_schedule,
    escalations_of,
    rounds_for_epochs,
    words_of,
)
from repro.protocols.certificates import certificate_from_votes
from repro.protocols.messages import SignedVote
from repro.sim.adversary import Adversary
from repro.sim.conditions import NETWORKS, NetworkConditions


def _inputs(n):
    return [i % 2 for i in range(n)]


def _run(n, f, inputs, seed=0, adversary=None, conditions=None, **kwargs):
    instance = build_adaptive_ba(n, f, inputs, seed=seed,
                                 conditions=conditions, **kwargs)
    return run_instance(instance, f, adversary, seed=seed,
                        conditions=conditions)


class TestFastPath:
    @pytest.mark.parametrize("bit", [0, 1])
    def test_unanimous_faultfree_is_linear_and_silent(self, bit):
        """The headline claim at f* = 0: decide on the unanimous input
        in epoch 1, zero escalations, exactly 4(n - 1) words — reports,
        one propose multicast, acks, one decide multicast."""
        for n, f in ((10, 3), (25, 8)):
            result = _run(n, f, [bit] * n, seed=bit)
            assert result.all_decided() and result.consistent()
            assert set(result.outputs.values()) == {bit}
            assert escalations_of(result) == 0
            assert words_of(result) == FAST_PATH_WORD_FACTOR * (n - 1)
            assert words_of(result) <= FAST_PATH_WORD_FACTOR * n

    def test_split_inputs_unify_through_the_king_in_one_escalation(self):
        """Mixed inputs leave no certificate quorum in epoch 1; the
        collector's f+1-justified king bit unifies beliefs and epoch 2
        decides — exactly one escalation."""
        result = _run(10, 3, _inputs(10), seed=1)
        assert result.all_decided() and result.consistent()
        assert result.agreement_valid()
        assert escalations_of(result) == 1

    def test_fast_path_words_beat_quadratic_ba(self):
        n, f = 25, 8
        adaptive = _run(n, f, [1] * n, seed=0)
        quadratic = run_instance(
            build_quadratic_ba(n, f, [1] * n, seed=0), f, None, seed=0)
        assert words_of(adaptive) < words_of(quadratic)


class TestAdaptivity:
    def test_escalations_track_the_actual_fault_count(self):
        """Corrupting the first k nodes silences the collectors of
        epochs 1..k: exactly k escalations, and f* is reported."""
        n, f = 25, 8
        for k in range(f + 1):
            result = _run(n, f, [1] * n, seed=k,
                          adversary=ActualFaultsAdversary(actual=k))
            assert result.all_decided() and result.consistent(), k
            assert actual_faults_of(result) == k
            assert escalations_of(result) == k

    def test_words_monotone_in_actual_faults_and_below_quadratic(self):
        n, f = 25, 8
        quadratic_words = min(
            words_of(run_instance(
                build_quadratic_ba(n, f, [1] * n, seed=seed),
                f, ActualFaultsAdversary(actual=k), seed=seed))
            for seed in range(2) for k in (0, f))
        previous = -1
        for k in range(f + 1):
            result = _run(n, f, [1] * n, seed=0,
                          adversary=ActualFaultsAdversary(actual=k))
            words = words_of(result)
            assert words >= previous, k
            assert words < quadratic_words, k
            previous = words

    def test_actual_faults_adversary_rejects_over_budget(self):
        instance = build_adaptive_ba(10, 3, [1] * 10)
        with pytest.raises(ConfigurationError, match="exceeds"):
            run_instance(instance, 3, ActualFaultsAdversary(actual=4),
                         seed=0)
        with pytest.raises(ConfigurationError, match="non-negative"):
            ActualFaultsAdversary(actual=-1)


class TestSafetyProperties:
    @pytest.mark.parametrize("seed", range(8))
    def test_agreement_validity_termination_benign(self, seed):
        for inputs in ([0] * 10, [1] * 10, _inputs(10)):
            result = _run(10, 3, inputs, seed=seed)
            assert result.all_decided()
            assert result.consistent() and result.agreement_valid()
            assert result.rounds_executed <= result.rounds_budget

    @pytest.mark.parametrize("seed", range(5))
    def test_agreement_validity_under_crash(self, seed):
        result = _run(10, 3, _inputs(10), seed=seed,
                      adversary=CrashAdversary())
        assert result.all_decided()
        assert result.consistent() and result.agreement_valid()

    @pytest.mark.parametrize("network", ["lan", "wan", "lossy"])
    def test_decides_under_conditions(self, network):
        conditions = NETWORKS[network]
        result = _run(10, 3, _inputs(10), seed=2, conditions=conditions)
        assert result.all_decided()
        assert result.consistent() and result.agreement_valid()

    def test_validity_is_input_anchored(self):
        """All-honest-b inputs can only decide b — the king path needs
        f + 1 reports, one more than the corrupt nodes can fake."""
        for bit in (0, 1):
            for seed in range(3):
                result = _run(13, 4, [bit] * 13, seed=seed,
                              adversary=CrashAdversary())
                decided = set(result.outputs.values()) - {None}
                assert decided == {bit}, (bit, seed)


class TestScheduleHelpers:
    def test_epoch_schedule_phases(self):
        assert epoch_schedule(0) == (1, "Report")
        assert epoch_schedule(1) == (1, "Propose")
        assert epoch_schedule(2) == (1, "Ack")
        assert epoch_schedule(3) == (1, "Decide")
        assert epoch_schedule(4) == (2, "Report")
        assert epoch_of_round(7) == 2
        assert epoch_of_round(8) == 3

    def test_collector_rotation(self):
        assert [collector_of(e, 5) for e in range(1, 7)] == \
            [0, 1, 2, 3, 4, 0]

    def test_round_budget(self):
        assert rounds_for_epochs(1) == EPOCH_ROUNDS + 2
        assert rounds_for_epochs(5) == 5 * EPOCH_ROUNDS + 2
        with pytest.raises(ValueError):
            rounds_for_epochs(0)

    def test_default_epochs_accounts_for_trusted_rounds(self):
        assert default_epochs(3, None) == 5
        conditioned = NetworkConditions(delta=2, gst=8,
                                        latency=("uniform", 1, 2))
        burned = default_epochs(3, conditioned) - 5
        assert burned >= 1  # pre-GST epochs are budgeted, not stolen


class TestBuilderValidation:
    def test_rejects_insufficient_resilience(self):
        with pytest.raises(ConfigurationError, match="f < n/3"):
            build_adaptive_ba(9, 3, [0] * 9)

    def test_rejects_wrong_input_count(self):
        with pytest.raises(ConfigurationError, match="one input bit"):
            build_adaptive_ba(10, 3, [0] * 9)

    def test_rejects_empty_epoch_budget(self):
        with pytest.raises(ConfigurationError, match="at least one epoch"):
            build_adaptive_ba(10, 3, [0] * 10, epochs=0)

    def test_threshold_is_n_minus_f(self):
        for n, f in ((4, 1), (7, 2), (10, 3), (25, 8)):
            instance = build_adaptive_ba(n, f, [0] * n)
            assert instance.config.threshold == n - f
            assert 2 * (n - f) - n > f  # quorum overlap beats doublers


class _LoneDeciderCollector(Adversary):
    """Corrupt {0, 1}.  Epoch-1 collector 0 forms the genuine ``n - f``
    certificate for 0 (the honest reports of 2, 3, 4 plus two corrupt
    votes), proposes it to {2, 3, 4} only, completes their three acks
    with two corrupt ones and shows the Decide to node 2 alone; from
    epoch 2 on the corrupt nodes report 1."""

    CORRUPT = (0, 1)

    def __init__(self, instance):
        super().__init__()
        self.sign = instance.authenticator.attempt
        self.threshold = instance.config.threshold
        self.reports = {}
        self.acks = {}

    def on_setup(self):
        for node_id in self.CORRUPT:
            self.api.corrupt(node_id)

    def observe_deliveries(self, round_index, inboxes):
        for delivery in inboxes[0]:
            msg = delivery.payload
            if isinstance(msg, SignedVote) and (msg.iteration, msg.bit) == (1, 0):
                self.reports[msg.voter] = msg.auth
            elif isinstance(msg, AdaptiveAckMsg) and msg.epoch == 1:
                self.acks[msg.sender] = msg

    def react(self, round_index, staged):
        epoch, phase = epoch_schedule(round_index)
        if (epoch, phase) == (1, "Propose"):
            votes = dict(self.reports)
            for node_id in self.CORRUPT:
                votes[node_id] = self.sign(node_id, ("Vote", 1, 0))
            propose = AdaptiveProposeMsg(
                epoch=1, bit=0, sender=0,
                cert=certificate_from_votes(1, 0, votes, self.threshold),
                auth=self.sign(0, ("Propose", 1, 0)))
            for target in (2, 3, 4):
                self.api.inject(0, target, propose)
        elif (epoch, phase) == (1, "Decide"):
            acks = dict(self.acks)
            for node_id in self.CORRUPT:
                acks[node_id] = AdaptiveAckMsg(
                    epoch=1, bit=0, sender=node_id,
                    auth=self.sign(node_id, ("Ack", 1, 0)))
            self.api.inject(0, 2, AdaptiveDecideMsg(
                epoch=1, bit=0, sender=0,
                acks=tuple(acks[sender] for sender in sorted(acks)),
                auth=self.sign(0, ("Decide", 1, 0))))
        elif epoch > 1 and phase == "Report":
            for node_id in self.CORRUPT:
                self.api.inject(
                    node_id, collector_of(epoch, self.api.n),
                    SignedVote(iteration=epoch, bit=1, voter=node_id,
                               auth=self.sign(node_id, ("Vote", epoch, 1))))


class TestSilentHaltCounterexample:
    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 3: a non-collector that adopts a Decide quorum sent in "
        "a trusted round halts without relaying it, so a Byzantine "
        "collector that shows the Decide to one node strands the nodes "
        "it locked (the silent-halt policy, AdaptiveBaNode._settle)"))
    def test_byzantine_collector_cannot_strand_its_lockers(self):
        """Inside ``n > 3f``: node 2 decides 0 at round 4 and halts
        silently; 3 and 4 stay locked on 0 and never decide, 5 and 6
        finalize 1."""
        instance = build_adaptive_ba(7, 2, [0, 0, 0, 0, 0, 1, 1], seed=3)
        result = run_instance(instance, 2, _LoneDeciderCollector(instance),
                              seed=3)
        assert result.consistent()
        assert result.all_decided()
