"""Tests for leader oracles and the execution-result predicates."""

from repro.protocols.leader_ba import SCHEDULE, decision_view_of
from repro.sim.leader import RandomLeaderOracle, RoundRobinLeaderOracle
from repro.sim.metrics import CommunicationMetrics
from repro.sim.result import ExecutionResult


class TestLeaderOracles:
    def test_round_robin(self):
        oracle = RoundRobinLeaderOracle(5)
        assert [oracle.leader(e) for e in range(7)] == [0, 1, 2, 3, 4, 0, 1]

    def test_random_oracle_is_memoized(self):
        oracle = RandomLeaderOracle(50, seed=3)
        assert oracle.leader(4) == oracle.leader(4)

    def test_random_oracle_deterministic_per_seed(self):
        a = RandomLeaderOracle(50, seed=3)
        b = RandomLeaderOracle(50, seed=3)
        assert [a.leader(e) for e in range(10)] == [b.leader(e)
                                                    for e in range(10)]

    def test_random_oracle_varies_across_epochs(self):
        oracle = RandomLeaderOracle(50, seed=3)
        leaders = {oracle.leader(e) for e in range(30)}
        assert len(leaders) > 5

    def test_random_oracle_in_range(self):
        oracle = RandomLeaderOracle(7, seed=1)
        assert all(0 <= oracle.leader(e) < 7 for e in range(40))


def _result(outputs, corrupt=(), inputs=None, n=None):
    n = n if n is not None else len(outputs) + len(corrupt)
    return ExecutionResult(
        n=n,
        corruption_budget=len(corrupt),
        corrupt_set=set(corrupt),
        rounds_executed=5,
        outputs=outputs,
        decided_rounds={node: 3 for node in outputs},
        metrics=CommunicationMetrics(n=n),
        inputs=inputs or {},
    )


class TestResultPredicates:
    def test_consistency(self):
        assert _result({0: 1, 1: 1, 2: 1}).consistent()
        assert not _result({0: 1, 1: 0, 2: 1}).consistent()

    def test_corrupt_outputs_ignored(self):
        result = _result({0: 1, 2: 1}, corrupt=(1,))
        assert result.consistent()
        assert result.forever_honest == [0, 2]

    def test_agreement_validity_binding(self):
        result = _result({0: 0, 1: 0}, inputs={0: 1, 1: 1})
        assert not result.agreement_valid()
        result = _result({0: 1, 1: 1}, inputs={0: 1, 1: 1})
        assert result.agreement_valid()

    def test_agreement_validity_vacuous_on_mixed_inputs(self):
        result = _result({0: 0, 1: 0}, inputs={0: 0, 1: 1})
        assert result.agreement_valid()

    def test_broadcast_validity(self):
        result = _result({0: 1, 1: 1, 2: 1})
        assert result.broadcast_valid(0, 1)
        assert not result.broadcast_valid(0, 0)

    def test_broadcast_validity_vacuous_for_corrupt_sender(self):
        result = _result({1: 0, 2: 0}, corrupt=(0,))
        assert result.broadcast_valid(0, 1)

    def test_all_decided(self):
        result = _result({0: 1, 1: 1})
        assert result.all_decided()
        result.decided_rounds[1] = None
        assert not result.all_decided()

    def test_summary_mentions_key_facts(self):
        text = _result({0: 1, 1: 1}).summary()
        assert "consistent=True" in text
        assert "n=2" in text


class TestDecisionViewOf:
    def _timed_out(self, views):
        """A run that exhausted its ``views``-view budget undecided."""
        budget = SCHEDULE.rounds_for(views)
        result = _result({0: 1, 1: 1})
        result.decided_rounds = {0: None, 1: None}
        result.rounds_executed = budget
        result.rounds_budget = budget
        return result

    def test_exhausted_budget_reports_the_last_view(self):
        """The two trailing delivery rounds past the last view must not
        be reported as a view of their own: without the clamp the raw
        round arithmetic lands on ``views + 1``."""
        for views in (1, 3, 7):
            result = self._timed_out(views)
            assert SCHEDULE.unit_of_round(result.rounds_executed - 1) == views + 1
            assert decision_view_of(result) == views

    def test_decided_run_is_not_clamped(self):
        result = _result({0: 1, 1: 1})
        result.rounds_budget = SCHEDULE.rounds_for(2)
        result.decided_rounds = {0: 5, 1: 5}
        assert decision_view_of(result) == SCHEDULE.unit_of_round(4)
