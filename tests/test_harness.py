"""Tests for the runner, trial aggregation, and table rendering."""

import pytest

from repro.adversaries import CrashAdversary
from repro.harness import Table, run_instance, run_trials
from repro.harness.runner import TrialStats
from repro.harness.scenarios import ScenarioSpec, execute_or_replay
from repro.protocols import build_quadratic_ba
from repro.sim.result import ExecutionResult


class TestRunTrials:
    def test_aggregates_across_seeds(self):
        n, f = 7, 3
        stats = run_trials(build_quadratic_ba, f=f, seeds=range(3),
                           n=n, inputs=[1] * n)
        assert stats.trials == 3
        assert stats.consistency_rate == 1.0
        assert stats.validity_rate == 1.0
        assert stats.mean_rounds > 0
        assert stats.mean_multicasts > 0

    def test_adversary_factory_sees_each_instance(self):
        captured = []

        def factory(instance):
            captured.append(instance.name)
            return CrashAdversary()

        n, f = 7, 3
        run_trials(build_quadratic_ba, f=f, seeds=range(2),
                   n=n, inputs=[1] * n, adversary_factory=factory)
        assert captured == ["quadratic-ba", "quadratic-ba"]

    def test_empty_stats_defaults(self):
        stats = TrialStats()
        assert stats.consistency_rate == 1.0
        assert stats.violation_rate == 0.0
        assert stats.mean_rounds == 0.0

    def test_decision_rounds_collects_all(self):
        n, f = 7, 3
        stats = run_trials(build_quadratic_ba, f=f, seeds=range(2),
                           n=n, inputs=[1] * n)
        assert len(stats.decision_rounds()) == 2 * n


def _stats_signature(stats):
    """Every externally observable aggregate of one TrialStats."""
    return {
        "trials": stats.trials,
        "consistency_rate": stats.consistency_rate,
        "validity_rate": stats.validity_rate,
        "termination_rate": stats.termination_rate,
        "mean_rounds": stats.mean_rounds,
        "mean_multicasts": stats.mean_multicasts,
        "mean_multicast_bits": stats.mean_multicast_bits,
        "decision_rounds": stats.decision_rounds(),
    }


class _CountingPool:
    """A lent-pool proxy that records every submit it forwards."""

    def __init__(self, pool):
        self.pool = pool
        self.submits = 0

    def submit(self, *args, **kwargs):
        self.submits += 1
        return self.pool.submit(*args, **kwargs)


def _quadratic_cell(seeds):
    """One quadratic-BA cell at n = 7, f = 3 over ``seeds``."""
    return ScenarioSpec(name="lent", protocol="quadratic",
                        fixed={"n": 7, "f": 3}, inputs="mixed",
                        seeds=seeds).cells()[0]


class TestLentPool:
    def test_single_seed_routes_through_the_pool(self):
        # A lone seed must not bypass a lent pool (silently discarding
        # the worker-process state the caller lent the pool to
        # preserve). It submits like any other seed — and aggregates
        # identically to the inline path.
        from concurrent.futures import ProcessPoolExecutor

        cell = _quadratic_cell((5,))
        with ProcessPoolExecutor(max_workers=1) as pool:
            counting = _CountingPool(pool)
            pooled = execute_or_replay(cell, pool=counting)
        assert counting.submits == 1
        inline = execute_or_replay(cell)
        assert pooled.row() == inline.row()
        assert _stats_signature(pooled.stats) == _stats_signature(inline.stats)

    def test_pool_vs_inline_determinism_multi_seed(self):
        from concurrent.futures import ProcessPoolExecutor

        cell = _quadratic_cell((0, 1, 2))
        with ProcessPoolExecutor(max_workers=2) as pool:
            counting = _CountingPool(pool)
            pooled = execute_or_replay(cell, pool=counting)
        assert counting.submits == 3
        inline = execute_or_replay(cell)
        assert pooled.row() == inline.row()
        assert _stats_signature(pooled.stats) == _stats_signature(inline.stats)

    def test_empty_seeds_with_pool_runs_nothing(self):
        class ExplodingPool:
            def submit(self, *args, **kwargs):  # pragma: no cover
                raise AssertionError("no seeds, no submits")

        result = execute_or_replay(_quadratic_cell(()), pool=ExplodingPool())
        assert result.stats.trials == 0


class TestRunInstance:
    def test_max_rounds_override(self):
        n, f = 7, 3
        instance = build_quadratic_ba(n, f, [i % 2 for i in range(n)], seed=0)
        result = run_instance(instance, f, seed=0, max_rounds=1)
        assert result.rounds_executed == 1

    def test_returns_execution_result(self):
        n, f = 7, 3
        instance = build_quadratic_ba(n, f, [1] * n, seed=0)
        result = run_instance(instance, f, seed=0)
        assert isinstance(result, ExecutionResult)
        assert result.inputs == {i: 1 for i in range(n)}


class TestTable:
    def test_renders_aligned_columns(self):
        table = Table("Title", ["name", "value"])
        table.add_row("alpha", 1)
        table.add_row("b", 123456)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_formats_floats_and_bools(self):
        table = Table("T", ["a", "b"])
        table.add_row(0.123456, True)
        rendered = table.render()
        assert "0.123" in rendered
        assert "yes" in rendered

    def test_wrong_arity_rejected(self):
        table = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_str_is_render(self):
        table = Table("T", ["a"])
        table.add_row(1)
        assert str(table) == table.render()
