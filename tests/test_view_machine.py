"""The shared view machine (``protocols/view_machine.py``).

``ViewSchedule`` arithmetic on its own, and the one lock hook both
families absorb through: instrumented at :meth:`ViewNode.absorb_lock`,
every absorption on every node of both families is rank-monotone.  The
decide-quorum identity front never lends a verified tuple to a Decide
of other arguments.
"""

import pytest

from repro.adversaries import ActualFaultsAdversary, ViewSplitAdversary
from repro.harness import run_instance
from repro.protocols import build_adaptive_ba, build_leader_ba
from repro.protocols.leader_ba import LeaderDecideMsg, build_leader_chain
from repro.protocols.view_machine import ViewNode, ViewSchedule
from repro.sim.conditions import NETWORKS, NetworkConditions

from tests.test_leader_and_result import _result
from tests.test_leader_ba_properties import (
    assert_locks_monotone,
    instrument_locks,
)

SCHEDULE = ViewSchedule(("A", "B", "C", "D"))


class TestViewSchedule:
    def test_schedule_and_unit_of_round(self):
        assert SCHEDULE.rounds == 4
        assert [SCHEDULE.schedule(r) for r in (0, 3, 4, 9)] == \
            [(1, "A"), (1, "D"), (2, "A"), (3, "B")]
        for round_index in range(12):
            unit, phase = SCHEDULE.schedule(round_index)
            assert SCHEDULE.unit_of_round(round_index) == unit
            assert SCHEDULE.round_of(unit, phase) == round_index
            assert SCHEDULE.at_boundary(round_index) == (phase == "A")

    def test_rounds_for_pads_two_delivery_rounds(self):
        assert SCHEDULE.rounds_for(1) == 6
        assert SCHEDULE.rounds_for(5) == 22
        with pytest.raises(ValueError):
            SCHEDULE.rounds_for(0)

    def test_default_budget_adds_burned_units(self):
        assert SCHEDULE.default_budget(3, None, slack=2) == 5
        assert SCHEDULE.default_budget(3, None, slack=3) == 6
        conditions = NetworkConditions(delta=2, gst=10,
                                       latency=("fixed", 1))
        trusted = conditions.trusted_send_round
        assert trusted % 4 != 0  # the ceiling is exercised
        assert SCHEDULE.default_budget(3, conditions, slack=2) == \
            trusted // 4 + 1 + 5

    def test_settled_unit_of_a_decided_run(self):
        result = _result({0: 1, 1: 1})
        result.decided_rounds = {0: 4, 1: 5}
        # Round 5 tallies round 4's quorum: unit 2.
        assert SCHEDULE.settled_unit(result) == 2
        result.decided_rounds = {0: 0, 1: 0}
        assert SCHEDULE.settled_unit(result) == 1

    @pytest.mark.parametrize("units", [1, 3, 7])
    def test_settled_unit_clamps_the_trailing_rounds(self, units):
        budget = SCHEDULE.rounds_for(units)
        result = _result({0: 1, 1: 1})
        result.decided_rounds = {0: None, 1: None}
        result.rounds_executed = result.rounds_budget = budget
        assert SCHEDULE.unit_of_round(budget - 1) == units + 1
        assert SCHEDULE.settled_unit(result) == units
        # One undecided node is enough for the exhausted-budget reading.
        result.decided_rounds[0] = 1
        assert SCHEDULE.settled_unit(result) == units


def _leader_case(network, seed):
    conditions = NETWORKS[network]
    instance = build_leader_ba(7, 2, [i % 2 for i in range(7)], seed=seed,
                               conditions=conditions)
    return instance, 2, ViewSplitAdversary(instance), conditions


def _adaptive_case(actual):
    def case(network, seed):
        conditions = NETWORKS[network]
        instance = build_adaptive_ba(10, 3, [i % 2 for i in range(10)],
                                     seed=seed, conditions=conditions)
        return (instance, 3, ActualFaultsAdversary(actual=actual),
                conditions)
    return case


class TestLocksNeverRegress:
    @pytest.mark.parametrize("network", ["perfect", "wan", "lossy"])
    @pytest.mark.parametrize("case", [
        pytest.param(_leader_case, id="leader-view-split"),
        pytest.param(_adaptive_case(0), id="adaptive-k0"),
        pytest.param(_adaptive_case(3), id="adaptive-kf"),
    ])
    def test_every_absorption_is_rank_monotone(self, case, network):
        absorbed = 0
        for seed in range(4):
            instance, f, adversary, conditions = case(network, seed)
            assert all(isinstance(node, ViewNode) for node in instance.nodes)
            histories = instrument_locks(instance)
            result = run_instance(instance, f, adversary, seed=seed,
                                  conditions=conditions)
            assert result.consistent() and result.all_decided()
            assert_locks_monotone(histories, f"{network} seed {seed}")
            absorbed += sum(map(len, histories.values()))
        assert absorbed  # the hook is the one the protocols call


class TestDecideQuorumFront:
    def test_a_verified_tuple_vouches_only_for_its_own_arguments(self):
        """The identity front over decide quorums answers for the
        arguments it verified under: the same interned precommit tuple
        carried by a Decide for another view or the other bit — each
        genuinely signed by its sender — is checked anew and refused."""
        n, f = 7, 2
        wan = NETWORKS["wan"]
        instance = build_leader_chain(n, f, [1] * n, seed=1, conditions=wan)
        assert run_instance(instance, f, seed=1,
                            conditions=wan).all_decided()
        front = instance.services["config"].verification._quorum_true_by_id
        assert front, "no Decide was received and verified"
        members, (_, view, bit, _, _) = next(iter(front.values()))
        node = instance.nodes[0]
        sign = instance.services["authenticator"].attempt

        def decide(view, bit):
            return LeaderDecideMsg(view, bit, members, 1,
                                   sign(1, ("Decide", view, bit)))

        assert node._valid_decide(decide(view, bit))
        for other in (decide(view + 1, bit), decide(view, 1 - bit)):
            assert node._signed(other, "Decide", other.view)
            assert not node._valid_decide(other)
