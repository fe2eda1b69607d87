"""Sweep dispatch (``run_sweep``'s plan / submit / gather passes): every
pooled cell is in flight at once, yet artifacts, store records and the
``on_cell`` event stream are the same bytes in the same order for any
worker count; a failure mid-sweep leaves a resumable store and does not
wait for the cells behind it."""

import concurrent.futures
import os

import pytest

from repro.harness.scenarios import (
    PROTOCOLS,
    ProtocolEntry,
    ScenarioSpec,
    SweepSpec,
    run_sweep,
    sweep_json_text,
)
from repro.harness.store import ExperimentStore
from repro.harness.sweep_library import SWEEPS
from repro.protocols import build_quadratic_ba

#: ``partition-heal`` mixes pooled (``trials``) and inline (``theorem4``,
#: ``dolev-reischuk``) cells.
BATTERY = ("smoke", "early-stop-vs-delta", "partition-heal")


def _artifact(result):
    return sweep_json_text(result.name, result.rows(), result.lottery)


def _cell_records(root):
    return {path.name: path.read_bytes()
            for path in sorted((root / "cells").glob("*/*.json"))}


def _observed_run(sweep, root, **kwargs):
    """One store-backed run: (artifact text, cell-record bytes, events)."""
    events = []
    result = run_sweep(
        sweep, store=ExperimentStore(root),
        on_cell=lambda e: events.append(
            (e["index"], e["status"], e["fingerprint"])),
        **kwargs)
    return _artifact(result), _cell_records(root), events


class TestDeterminismBattery:
    @pytest.mark.parametrize("name", BATTERY)
    def test_bytes_and_event_order_for_any_worker_count(self, name, tmp_path):
        sweep = SWEEPS[name]
        runs = [_observed_run(sweep, tmp_path / f"w{workers}",
                              workers=workers)
                for workers in (1, 2, 3)]
        assert runs[0][1], "the store recorded nothing"
        assert [index for index, _, _ in runs[0][2]] == list(
            range(len(sweep.expand())))
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    @pytest.mark.parametrize("name", BATTERY)
    def test_shards_still_union_to_the_full_artifact(self, name, tmp_path):
        sweep = SWEEPS[name]
        full, records, _ = _observed_run(sweep, tmp_path / "full")
        first, _, first_events = _observed_run(
            sweep, tmp_path / "sharded", workers=2, shard=(1, 2))
        assert [status for _, status, _ in first_events] == [
            "computed" if index % 2 == 0 else "skipped"
            for index in range(len(first_events))]
        assert first != full
        second, union, second_events = _observed_run(
            sweep, tmp_path / "sharded", workers=2, shard=(2, 2))
        assert [status for _, status, _ in second_events] == [
            "replayed" if index % 2 == 0 else "computed"
            for index in range(len(second_events))]
        assert second == full
        assert union == records

    @pytest.mark.parametrize("name", BATTERY)
    def test_fully_recorded_sweep_forks_no_process(
            self, name, tmp_path, monkeypatch):
        cold = _observed_run(SWEEPS[name], tmp_path, workers=2)
        submits = []

        class SpyPool(concurrent.futures.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):  # pragma: no cover
                submits.append(args)
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SpyPool)
        warm = _observed_run(SWEEPS[name], tmp_path, workers=2)
        assert submits == []
        assert warm[:2] == cold[:2]
        assert [status for _, status, _ in warm[2]] == (
            ["replayed"] * len(cold[2]))


class TestTwinCells:
    """Scenario names are outside the fingerprint, so two cells of one
    sweep can share one: the first computes and the second replays its
    record — which does not exist yet when the plan pass looks it up."""

    @pytest.mark.parametrize("kwargs, statuses", [
        ({}, ["computed", "replayed"]),
        ({"workers": 2}, ["computed", "replayed"]),
        ({"workers": 2, "shard": (1, 2)}, ["computed", "replayed"]),
        ({"workers": 2, "shard": (2, 2)}, ["skipped", "computed"]),
    ], ids=["inline", "pooled", "twin-out-of-shard", "first-out-of-shard"])
    def test_second_twin_replays_the_first(self, kwargs, statuses, tmp_path):
        twins = SweepSpec(name="twins", scenarios=tuple(
            ScenarioSpec(name=name, protocol="subquadratic",
                         fixed={"n": 24, "f_fraction": 0.25, "lam": 10},
                         inputs="mixed", seeds=(0, 1))
            for name in "ab"))
        _, records, events = _observed_run(twins, tmp_path, **kwargs)
        assert [status for _, status, _ in events] == statuses
        assert len(records) == 1


def build_faulty_quadratic(n, f, inputs, seed=0, fault=None, fault_n=None):
    """``build_quadratic_ba``, except that it raises at ``n == fault_n``
    for as long as the file ``fault`` exists (module-level: pickled to
    the pool's workers by name)."""
    if n == fault_n and os.path.exists(fault):
        raise RuntimeError(f"injected builder fault at n={n}")
    return build_quadratic_ba(n, f, inputs, seed=seed)


class _ShutdownSpy(concurrent.futures.ProcessPoolExecutor):
    shutdowns = []

    def shutdown(self, *args, **kwargs):
        self.shutdowns.append(kwargs)
        return super().shutdown(*args, **kwargs)


class TestFailurePath:
    @pytest.fixture
    def faulty(self, tmp_path, monkeypatch):
        """A 5-cell sweep whose second cell's builder raises while the
        marker file exists; the pool's ``shutdown`` calls are recorded."""
        monkeypatch.setitem(PROTOCOLS, "faulty-quadratic",
                            ProtocolEntry(build_faulty_quadratic))
        monkeypatch.setattr(_ShutdownSpy, "shutdowns", [])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _ShutdownSpy)
        marker = tmp_path / "fault"
        marker.touch()
        return marker, SweepSpec(name="faulty", scenarios=(ScenarioSpec(
            name="q", protocol="faulty-quadratic",
            grid={"n": (7, 9, 11, 13, 15)},
            fixed={"f": 2, "fault": str(marker), "fault_n": 9},
            seeds=range(3)),))

    @pytest.mark.parametrize("workers", (1, 2))
    def test_worker_exception_propagates_and_the_sweep_resumes(
            self, workers, faulty, tmp_path):
        marker, sweep = faulty
        store = ExperimentStore(tmp_path / "store")
        events = []
        with pytest.raises(RuntimeError, match="injected builder fault"):
            run_sweep(sweep, workers=workers, store=store,
                      on_cell=events.append)
        # Cell 1 settled — recorded, and the only event — before the
        # fault surfaced; cells 3..5 were never awaited.
        assert [(e["index"], e["status"]) for e in events] == [
            (0, "computed")]
        assert store.cell_count() == 1
        if workers > 1:
            assert _ShutdownSpy.shutdowns == [{"cancel_futures": True}]

        marker.unlink()
        resumed = run_sweep(sweep, workers=workers, store=store)
        assert resumed.store_stats["replayed"] == 1
        assert resumed.store_stats["computed"] == 4
        clean = run_sweep(sweep, store=ExperimentStore(tmp_path / "clean"))
        assert _artifact(resumed) == _artifact(clean)

    @pytest.mark.parametrize("workers", (1, 2))
    def test_raising_callback_aborts_and_the_sweep_resumes(
            self, workers, faulty, tmp_path):
        marker, sweep = faulty
        marker.unlink()
        store = ExperimentStore(tmp_path / "store")

        def explode(event):
            raise KeyError(event["index"])

        with pytest.raises(KeyError):
            run_sweep(sweep, workers=workers, store=store, on_cell=explode)
        # The record is written before the event fires.
        assert store.cell_count() == 1
        if workers > 1:
            assert _ShutdownSpy.shutdowns == [{"cancel_futures": True}]
        resumed = run_sweep(sweep, workers=workers, store=store)
        assert resumed.store_stats["replayed"] == 1
        clean = run_sweep(sweep, store=ExperimentStore(tmp_path / "clean"))
        assert _artifact(resumed) == _artifact(clean)
