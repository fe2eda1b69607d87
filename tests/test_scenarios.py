"""Tests for the declarative scenario-matrix layer (harness/scenarios.py):
grid expansion, worker/cache determinism, lottery-cache soundness, and
artifact round-trips."""

import csv
import dataclasses
import json
import re

import pytest

from repro.eligibility import DifficultySchedule, FMineEligibility
from repro.eligibility.lottery_cache import SharedLotteryCache, shared_cache
from repro.errors import ConfigurationError
from repro.harness import run_instance, run_trials
from repro.harness.runner import named_parameters
from repro.harness.scenarios import (
    EXECUTORS,
    PROTOCOLS,
    ProtocolEntry,
    ScenarioSpec,
    SweepSpec,
    rounds_saved_columns,
    run_sweep,
)
from repro.harness.store import ExperimentStore
from repro.harness.sweep_library import SWEEPS
from repro.protocols import build_subquadratic_ba
from repro.protocols.adaptive_ba import adaptive_columns
from repro.protocols.leader_ba import view_columns
from repro.types import SecurityParameters

SMOKE = SWEEPS["smoke"]


def _worker_cache_stats(token):
    """Probe a worker process's view of a shared lottery cache
    (module-level so the pool can pickle it)."""
    return shared_cache(token).stats()

TINY = SweepSpec(
    name="tiny",
    scenarios=(
        ScenarioSpec(
            name="subq", protocol="subquadratic",
            grid={"n": (24, 32)},
            fixed={"f_fraction": 0.25, "lam": 10},
            inputs="mixed", adversary="crash", seeds=range(2)),
    ),
)


class TestGridExpansion:
    def test_cross_product_counts_and_order(self):
        spec = ScenarioSpec(
            name="s", protocol="subquadratic",
            grid={"lam": (10, 20), "n": (24, 32, 48)},
            fixed={"f_fraction": 0.25}, seeds=(0,))
        cells = spec.cells()
        assert len(cells) == 6
        # First axis is the outermost loop (row-major expansion).
        assert [(dict(c.bindings)["lam"], c.n) for c in cells] == [
            (10, 24), (10, 32), (10, 48), (20, 24), (20, 32), (20, 48)]

    def test_f_fraction_and_callable_f(self):
        spec = ScenarioSpec(
            name="s", protocol="quadratic",
            grid={"n": (20, 40)}, fixed={"f_fraction": 0.25}, seeds=(0,))
        assert [c.f for c in spec.cells()] == [5, 10]

        def half(n):
            return (n - 1) // 2

        spec = ScenarioSpec(
            name="s", protocol="quadratic",
            grid={"n": (21, 41)}, fixed={"f": half}, seeds=(0,))
        assert [c.f for c in spec.cells()] == [10, 20]

    def test_adversary_as_grid_axis(self):
        cells = SMOKE.expand()
        assert [c.adversary for c in cells] == ["none", "crash"]
        # Fixed bindings are shared across the axis.
        assert {c.n for c in cells} == {32}

    def test_lam_folds_into_params(self):
        cell = TINY.scenarios[0].cells()[0]
        kwargs = cell.builder_kwargs()
        assert kwargs["params"] == SecurityParameters(lam=10)
        assert "lam" not in kwargs

    def test_missing_f_raises(self):
        spec = ScenarioSpec(name="s", protocol="quadratic",
                            fixed={"n": 20}, seeds=(0,))
        with pytest.raises(ConfigurationError, match="f or f_fraction"):
            spec.cells()

    def test_silently_dropped_bindings_raise(self):
        # lam on a protocol that takes no params.
        with pytest.raises(ConfigurationError, match="lam binding"):
            ScenarioSpec(name="s", protocol="quadratic",
                         fixed={"n": 8, "f": 2, "lam": 99},
                         seeds=(0,)).cells()
        # epsilon with nothing to fold it into.
        with pytest.raises(ConfigurationError, match="epsilon requires"):
            ScenarioSpec(name="s", protocol="subquadratic",
                         fixed={"n": 8, "f": 2, "epsilon": 0.3},
                         seeds=(0,)).cells()
        # pre-built params alongside lam/epsilon.
        with pytest.raises(ConfigurationError, match="would be ignored"):
            ScenarioSpec(name="s", protocol="subquadratic",
                         fixed={"n": 8, "f": 2, "lam": 10,
                                "params": SecurityParameters(lam=20)},
                         seeds=(0,)).cells()

    def test_single_seed_executors_reject_multi_seed_specs(self):
        with pytest.raises(ConfigurationError, match="exactly one seed"):
            ScenarioSpec(name="s", protocol="naive-broadcast",
                         executor="dolev-reischuk",
                         fixed={"n": 8, "f": 2, "sender_input": 0},
                         seeds=(1, 2)).cells()

    def test_unknown_names_raise(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            ScenarioSpec(name="s", protocol="nope",
                         fixed={"n": 8, "f": 2}, seeds=(0,)).cells()
        with pytest.raises(ConfigurationError, match="unknown adversary"):
            ScenarioSpec(name="s", protocol="quadratic", adversary="nope",
                         fixed={"n": 8, "f": 2}, seeds=(0,)).cells()
        with pytest.raises(ConfigurationError, match="unknown executor"):
            ScenarioSpec(name="s", protocol="quadratic", executor="nope",
                         fixed={"n": 8, "f": 2}, seeds=(0,)).cells()

    @pytest.mark.parametrize("spec, message", [
        (dict(protocol="quadratic", fixed={"n": 8, "f": 2, "mode": "vrf"}),
         "protocol 'quadratic' names no 'mode' parameter for the mode "
         "binding"),
        (dict(protocol="quadratic", adversary="crash",
              fixed={"n": 8, "f": 2, "adversary_actual": 1}),
         "adversary 'crash' names no 'actual' parameter for the "
         "adversary_actual binding"),
        (dict(protocol="quadratic", adversary="crash",
              adversary_kwargs={"actual": 1}, fixed={"n": 8, "f": 2}),
         "adversary 'crash' names no 'actual' parameter"),
        # An executor without **kwargs is the receiver itself ...
        (dict(executor="hypothetical", seeds=(0,),
              fixed={"n": 8, "lam": 8, "heights": 2}),
         "executor 'hypothetical' names no 'heights' parameter"),
        # ... and behind one that has them, the builder is.
        (dict(executor="theorem4", protocol="naive-broadcast",
              fixed={"n": 8, "f": 2, "sender_input": 0, "lam": 8}),
         "protocol 'naive-broadcast' names no 'params' parameter for the "
         "lam binding"),
    ])
    def test_a_binding_its_receiver_does_not_name_is_refused(
            self, spec, message):
        """Refused when the grid expands, not as a ``TypeError`` inside
        a trial (under ``workers=2``, inside a pool worker)."""
        with pytest.raises(ConfigurationError,
                           match="scenario 's': " + re.escape(message)):
            ScenarioSpec(name="s", **spec).cells()

    def test_a_kwargs_builder_receives_any_binding(self):
        # broadcast-from-ba hands **kwargs to its inner BA builder.
        (cell,) = ScenarioSpec(
            name="s", protocol="broadcast-from-ba", seeds=(0,),
            fixed={"n": 8, "f": 2, "sender_input": 1, "lam": 8,
                   "ba_builder": "subquadratic", "mode": "vrf"}).cells()
        assert cell.builder_kwargs()["params"] == SecurityParameters(lam=8)
        assert cell.builder_kwargs()["mode"] == "vrf"

    @pytest.mark.parametrize("name", sorted(SWEEPS))
    def test_every_library_sweep_binds(self, name):
        assert SWEEPS[name].expand()

    @pytest.mark.parametrize("name", [f"E{index}" for index in range(1, 12)])
    def test_every_experiment_sweep_binds(self, name, monkeypatch):
        from repro.harness import experiments

        class Captured(Exception):
            pass

        def capture(sweep, **kwargs):
            raise Captured(sweep)

        monkeypatch.setattr(experiments, "run_sweep", capture)
        with pytest.raises(Captured) as captured:
            experiments.ALL_EXPERIMENTS[name]()
        assert captured.value.args[0].expand()


    def test_unknown_ba_builder_raises(self, capsys, monkeypatch):
        """A ``ba_builder`` given by name resolves through the registry
        like every other name here: an unknown one is a configuration
        error naming the known keys, not a ``KeyError``."""
        scenario = ScenarioSpec(
            name="s", protocol="broadcast-from-ba",
            fixed={"n": 8, "f": 2, "sender_input": 1, "ba_builder": "nope"},
            seeds=(0,))
        with pytest.raises(ConfigurationError,
                           match=r"unknown ba_builder 'nope' \(have \["):
            scenario.cells()
        # ... which `repro sweep` reports as a usage error.
        from repro.cli import main

        monkeypatch.setitem(SWEEPS, "bad-ba-builder",
                            SweepSpec(name="bad-ba-builder",
                                      scenarios=(scenario,)))
        assert main(["sweep", "bad-ba-builder"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("sweep: unknown ba_builder 'nope'")
        assert captured.out == ""


#: What the registry *declared* before capabilities were read off the
#: builder signatures — the seven hand-set ``ProtocolEntry`` flags, one
#: row per protocol, in registry order: (takes per-node inputs [else a
#: sender input], params, coin_cache, mode, conditions, extra columns).
#: Literal on purpose: discovery is checked against what was declared,
#: not against itself.
DECLARED = {
    "subquadratic": (True, True, True, True, False, ()),
    "quadratic": (True, False, False, False, False, ()),
    "quadratic-early-stop":
        (True, False, False, False, True, (rounds_saved_columns,)),
    "leader-ba": (True, False, False, False, True, (view_columns,)),
    "leader-chain": (True, False, False, False, True, (view_columns,)),
    "adaptive-ba": (True, False, False, False, True, (adaptive_columns,)),
    "phase-king": (True, False, False, False, False, ()),
    "phase-king-early-stop":
        (True, False, False, False, True, (rounds_saved_columns,)),
    "phase-king-subquadratic": (True, True, True, True, False, ()),
    "static-committee": (True, False, False, False, False, ()),
    "round-eligibility": (True, True, False, True, False, ()),
    "dolev-strong": (False, False, False, False, False, ()),
    "naive-broadcast": (False, False, False, False, False, ()),
    "broadcast-from-ba": (False, False, False, False, False, ()),
}


class TestRegistryContract:
    def test_signatures_report_what_the_flags_declared(self):
        discovered = {
            key: (entry.takes("inputs"), entry.takes("params"),
                  entry.takes("coin_cache"), entry.takes("mode"),
                  entry.takes("conditions"), entry.columns)
            for key, entry in PROTOCOLS.items()}
        assert discovered == DECLARED
        assert list(discovered) == list(DECLARED)  # registry order too
        for key, entry in PROTOCOLS.items():
            assert entry.takes("sender_input") != entry.takes("inputs"), key

    def test_entry_is_builder_and_columns_only(self):
        import dataclasses

        assert [field.name for field in dataclasses.fields(ProtocolEntry)] \
            == ["builder", "columns"]

    def test_catch_all_kwargs_take_nothing_by_name(self):
        def build(n, f, *inputs, seed=0, **kwargs):
            raise AssertionError("never built")

        entry = ProtocolEntry(build)
        assert entry.takes("n") and entry.takes("f") and entry.takes("seed")
        # Neither the ``*inputs`` splat nor ``**kwargs`` names anything.
        assert not entry.takes("inputs") and not entry.takes("kwargs")
        assert not entry.takes("conditions") and not entry.takes("params")
        # The compiled broadcast forwards **kwargs to its inner builder:
        # what reaches that builder is the spec's business, not ours.
        assert not PROTOCOLS["broadcast-from-ba"].takes("conditions")

    def test_signature_resolved_once_per_builder(self, monkeypatch):
        import inspect

        from repro.harness import runner

        def build(n, f, inputs, seed=0, conditions=None):
            raise AssertionError("never built")

        resolved = []
        signature = inspect.signature
        monkeypatch.setattr(
            runner.inspect, "signature",
            lambda builder: resolved.append(builder) or signature(builder))
        entry = ProtocolEntry(build)
        for _ in range(3):
            assert entry.takes("conditions") and not entry.takes("mode")
        assert ProtocolEntry(build).takes("inputs")
        assert resolved == [build]


#: What ``Executor`` *declared*, one hand-set flag row per executor,
#: before requirements were read off the functions' signatures:
#: (needs a protocol, an n, an f; runs exactly one seed; ``lam`` /
#: ``epsilon`` fold into ``params``; honors a network binding).
#: Literal on purpose, like ``DECLARED`` above — an innocent signature
#: edit in ``lowerbounds/`` fails here, by name.
DECLARED_EXECUTORS = {
    "trials": (True, True, True, False, True, True),
    "per-seed": (True, True, True, False, True, True),
    "theorem4": (True, True, True, False, False, True),
    "theorem4-census": (True, True, True, False, False, True),
    "dolev-reischuk": (True, True, True, True, False, True),
    "hypothetical": (False, True, False, True, True, False),
    "committee-census": (False, True, True, False, True, False),
}


def _derived_contract(key):
    """The ``DECLARED_EXECUTORS`` row of executor ``key``, read off
    signatures alone."""
    names = named_parameters(EXECUTORS[key])
    required = {name for name, is_required in names.items() if is_required}
    # lam/epsilon fold when the final recipient of the cell's kwargs
    # names ``params``: the executor itself, or — it names ``builder`` —
    # a protocol it can run: the broadcast builders for an executor that
    # feeds one its ``sender_input``, else those that take ``inputs``.
    recipients = [names] if "builder" not in names else [
        named_parameters(entry.builder) for entry in PROTOCOLS.values()
        if entry.takes("sender_input") == ("sender_input" in required)]
    return ("builder" in required, "n" in required, "f" in required,
            "seed" in names and "seeds" not in names,
            any("params" in recipient for recipient in recipients),
            "conditions" in names)


class TestExecutorContract:
    def test_signatures_report_what_the_flags_declared(self):
        assert {key: _derived_contract(key) for key in EXECUTORS} \
            == DECLARED_EXECUTORS
        assert list(EXECUTORS) == list(DECLARED_EXECUTORS)
        # An executor that names ``epsilon`` means its own: it is the one
        # reserved binding that reaches an executor verbatim.
        assert {key for key in EXECUTORS
                if "epsilon" in named_parameters(EXECUTORS[key])} \
            == {"theorem4", "theorem4-census"}

    def test_a_bare_function_is_an_executor(self, monkeypatch):
        """The eighth executor costs its registry line: the function's
        signature is what it requires, what it is called with, and what
        it refuses."""
        @dataclasses.dataclass
        class Report:
            n: int
            f: int
            seed: object
            scaled: int

        def run_eighth(n, f, seed, factor=2):
            return Report(n, f, seed, factor * n)

        def spec(seeds=(7,), **fixed):
            return ScenarioSpec(name="s", executor="eighth", fixed=fixed,
                                seeds=seeds)

        monkeypatch.setitem(EXECUTORS, "eighth", run_eighth)
        (cell,) = spec(n=5, f_fraction=0.4).cells()
        assert (cell.executor, cell.n, cell.f) == ("eighth", 5, 2)
        with pytest.raises(ConfigurationError, match="missing its f or f_fraction binding"):
            spec(n=5).cells()
        with pytest.raises(ConfigurationError, match="exactly one seed"):
            spec(n=5, f=2, seeds=(1, 2)).cells()
        with pytest.raises(ConfigurationError, match="network conditions"):
            spec(n=5, f=2, network="lan").cells()
        result = run_sweep(SweepSpec(
            name="eighth", scenarios=(spec(n=5, f=2, factor=3),)))
        assert result.cells[0].payload == Report(5, 2, 7, 15)
        assert result.rows()[0]["scaled"] == 15

    @pytest.mark.parametrize("binding, spec", [
        ("protocol", dict(executor="hypothetical", protocol="quadratic",
                          fixed={"n": 8, "lam": 8}, seeds=(0,))),
        ("protocol", dict(executor="committee-census", protocol="quadratic",
                          fixed={"n": 8, "f": 2, "lam": 8})),
        ("adversary", dict(executor="theorem4", protocol="naive-broadcast",
                           adversary="crash",
                           fixed={"n": 8, "f": 2, "sender_input": 0})),
        ("adversary", dict(executor="committee-census",
                           fixed={"n": 8, "f": 2, "lam": 8,
                                  "adversary": "none"})),
        ("inputs", dict(executor="dolev-reischuk",
                        protocol="naive-broadcast", inputs="ones",
                        fixed={"n": 8, "f": 2, "sender_input": 0},
                        seeds=(0,))),
        ("inputs", dict(executor="hypothetical", seeds=(0,),
                        fixed={"n": 8, "lam": 8, "inputs": "zeros"})),
    ])
    def test_a_binding_nothing_would_receive_is_refused(self, binding, spec):
        with pytest.raises(
                ConfigurationError,
                match=f"scenario 's': executor {spec['executor']!r} cannot "
                      f"use the {binding} binding"):
            ScenarioSpec(name="s", **spec).cells()
        # ... and without it the same spec binds.
        spec["fixed"] = {key: value for key, value in spec["fixed"].items()
                         if key != binding}
        spec.pop(binding, None)
        assert ScenarioSpec(name="s", **spec).cells()

    def test_a_required_parameter_the_cell_cannot_bind_is_named(self):
        with pytest.raises(ConfigurationError, match="missing its protocol binding"):
            ScenarioSpec(name="s", fixed={"n": 8, "f": 2}).cells()
        with pytest.raises(ConfigurationError, match="missing its n binding"):
            ScenarioSpec(name="s", executor="hypothetical",
                         seeds=(0,)).cells()
        # Not only the layer's own names: the harness's ``sender_input``
        # used to surface as a TypeError mid-sweep.
        with pytest.raises(ConfigurationError,
                           match="missing its sender_input binding"):
            ScenarioSpec(name="s", executor="theorem4",
                         protocol="naive-broadcast",
                         fixed={"n": 8, "f": 2}).cells()


class TestDeterminism:
    def test_rows_identical_with_and_without_workers(self):
        sequential = run_sweep(SMOKE, workers=1)
        parallel = run_sweep(SMOKE, workers=2)
        assert sequential.rows() == parallel.rows()
        assert (sequential.to_table().render()
                == parallel.to_table().render())

    def test_rows_identical_with_and_without_lottery_cache(self):
        shared = run_sweep(TINY, share_lottery=True)
        unshared = run_sweep(TINY, share_lottery=False)
        assert shared.rows() == unshared.rows()
        assert unshared.lottery is None
        assert shared.lottery["misses"] > 0


class _CountingStore(ExperimentStore):
    """A store that counts its fingerprint and record lookups."""

    def __init__(self, root):
        super().__init__(root)
        self.calls = {"fingerprint": 0, "load_record": 0}

    def fingerprint(self, *args, **kwargs):
        self.calls["fingerprint"] += 1
        return super().fingerprint(*args, **kwargs)

    def load_record(self, *args, **kwargs):
        self.calls["load_record"] += 1
        return super().load_record(*args, **kwargs)


class TestOneLookupPerCell:
    @pytest.mark.parametrize("kwargs", [
        {}, {"workers": 2}, {"shard": (1, 2)}, {"shard": (2, 2)}],
        ids=["inline", "pooled", "shard-1-of-2", "shard-2-of-2"])
    def test_fingerprint_and_load_record_once_per_cell(
            self, kwargs, tmp_path):
        cells = len(TINY.expand())
        once = {"fingerprint": cells, "load_record": cells}
        cold = _CountingStore(tmp_path)
        run_sweep(TINY, store=cold, **kwargs)
        assert cold.calls == once
        # Warm (or, for a shard, half warm: in-shard cells replay,
        # out-of-shard misses are skipped — still one lookup each).
        warm = _CountingStore(tmp_path)
        result = run_sweep(TINY, store=warm, **kwargs)
        assert warm.calls == once
        assert result.store_stats["computed"] == 0


class TestLotteryCache:
    def _run(self, seed, coin_cache=None):
        n, f = 24, 6
        params = SecurityParameters(lam=10, epsilon=0.1)
        instance = build_subquadratic_ba(
            n=n, f=f, inputs=[i % 2 for i in range(n)], seed=seed,
            params=params, coin_cache=coin_cache)
        return run_instance(instance, f, seed=seed)

    def test_cached_execution_is_observationally_identical(self):
        cache = SharedLotteryCache()
        baseline = self._run(seed=3)
        cached = self._run(seed=3, coin_cache=cache)
        assert cache.misses > 0
        assert cached.outputs == baseline.outputs
        assert cached.rounds_executed == baseline.rounds_executed
        assert (cached.metrics.multicast_complexity_bits
                == baseline.metrics.multicast_complexity_bits)
        # A second instance with the same seed is served from the cache
        # and still byte-identical.
        hits_before = cache.hits
        rerun = self._run(seed=3, coin_cache=cache)
        assert cache.hits > hits_before
        assert rerun.outputs == baseline.outputs
        assert (rerun.metrics.multicast_complexity_bits
                == baseline.metrics.multicast_complexity_bits)

    def test_key_covers_seed_and_difficulty(self):
        # Same cache, different seeds and different λ: every combination
        # must draw its own coins, identical to the uncached lottery.
        cache = SharedLotteryCache()
        topic = ("Vote", 1, 1)
        n = 40
        for lam in (8, 16):
            for seed in (0, 1):
                schedule = DifficultySchedule.for_parameters(
                    SecurityParameters(lam=lam), n)
                cached = FMineEligibility(n, schedule, seed=seed,
                                          coin_cache=cache)
                plain = FMineEligibility(n, schedule, seed=seed)
                for node in range(n):
                    assert (
                        (cached.capability_for(node).try_mine(topic) is None)
                        == (plain.capability_for(node).try_mine(topic) is None)
                    )
        # 4 distinct (seed, λ) combinations × n nodes, no collisions.
        assert len(cache) == 4 * n
        assert cache.hits == 0

    def test_cache_pickles_to_process_local_token(self):
        import pickle

        cache = SharedLotteryCache(token="test-pickle-token")
        cache.coin(("k", 0.5), lambda: True)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone is shared_cache("test-pickle-token")
        assert clone is cache  # same process -> same registry entry

    def test_worker_cache_accumulates_across_cells_with_shared_pool(self):
        # run_sweep lends one pool to every cell, so a worker's
        # token-rebound cache must carry coins from cell to cell: with a
        # single worker, the second cell's trials (same seeds/lottery,
        # different adversary) are served from the worker's cache.
        from concurrent.futures import ProcessPoolExecutor

        cache = SharedLotteryCache(token="test-worker-pool-token")
        kwargs = dict(n=24, inputs=[i % 2 for i in range(24)],
                      params=SecurityParameters(lam=10),
                      coin_cache=cache)
        with ProcessPoolExecutor(max_workers=1) as pool:
            first = run_trials(build_subquadratic_ba, f=6, seeds=range(2),
                               pool=pool, **kwargs)
            stats_after_one = pool.submit(
                _worker_cache_stats, "test-worker-pool-token").result()
            second = run_trials(build_subquadratic_ba, f=6, seeds=range(2),
                                pool=pool, **kwargs)
            stats_after_two = pool.submit(
                _worker_cache_stats, "test-worker-pool-token").result()
        assert stats_after_one["misses"] > 0
        assert stats_after_one["hits"] == 0
        assert stats_after_two["hits"] > 0  # second cell hit the memo
        assert first.mean_multicasts == second.mean_multicasts
        # The main-process cache saw none of it (worker-local state).
        assert cache.misses == 0

    def test_verification_still_sees_mined_coins(self):
        # Tickets mined through a cached lottery must verify exactly like
        # uncached ones (Fmine.verify reads the per-instance coin table,
        # which the cache feeds).
        cache = SharedLotteryCache()
        schedule = DifficultySchedule.for_parameters(
            SecurityParameters(lam=12), 24)
        source = FMineEligibility(24, schedule, seed=7, coin_cache=cache)
        topic = ("Vote", 2, 0)
        tickets = [source.capability_for(node).try_mine(topic)
                   for node in range(24)]
        mined = [t for t in tickets if t is not None]
        assert mined
        for ticket in mined:
            assert source.verify(ticket)


class TestArtifacts:
    def test_json_round_trip(self, tmp_path):
        result = run_sweep(TINY)
        path = result.to_json(tmp_path / "tiny.json")
        assert result.rows() == result.load_rows(path)

    def test_csv_matches_rows(self, tmp_path):
        result = run_sweep(TINY)
        path = result.to_csv(tmp_path / "tiny.csv")
        with path.open() as handle:
            parsed = list(csv.DictReader(handle))
        rows = result.rows()
        assert len(parsed) == len(rows)
        assert set(parsed[0]) == set(rows[0])
        assert [r["n"] for r in parsed] == [str(r["n"]) for r in rows]

    def test_rows_are_json_safe(self):
        result = run_sweep(SMOKE)
        json.dumps(result.rows())


class TestSpecParity:
    def test_trials_cell_matches_direct_run_trials(self):
        """A spec-driven cell is the same run_trials call, field for field."""
        n, f = 24, 6
        params = SecurityParameters(lam=10)
        spec = SweepSpec(
            name="parity",
            scenarios=(
                ScenarioSpec(
                    name="subq", protocol="subquadratic",
                    fixed={"n": n, "f": f, "lam": 10},
                    inputs="mixed", adversary="crash", seeds=range(2)),
            ),
        )
        cell = run_sweep(spec).cells[0]
        from repro.adversaries import CrashAdversary
        direct = run_trials(
            build_subquadratic_ba, f=f, seeds=range(2), n=n,
            inputs=[i % 2 for i in range(n)], params=params,
            adversary_factory=lambda inst: CrashAdversary())
        assert cell.stats.mean_multicasts == direct.mean_multicasts
        assert cell.stats.mean_rounds == direct.mean_rounds
        assert cell.stats.consistency_rate == direct.consistency_rate
        assert cell.stats.max_message_bits == direct.max_message_bits

    def test_sweep_library_specs_expand(self):
        for sweep in SWEEPS.values():
            cells = sweep.expand()
            assert cells, sweep.name
            for cell in cells:
                assert cell.seeds
